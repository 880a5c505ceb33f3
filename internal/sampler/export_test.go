package sampler

// MaxPooledSamples is the ceiling on the recording mark and on the buffers
// the pool keeps.
const MaxPooledSamples = maxPooledSamples

// SampleMark reads the process-wide recording mark.
func SampleMark() int { return int(sampleMark.Load()) }

// RecordingCap is the capacity of p's recording buffer.
func (p *Profiler) RecordingCap() int { return cap(p.samples) }

// FinishRecording finishes p as though it had recorded samples into its
// buffer and returns a run holding that buffer, as ProfileRun would.
func (p *Profiler) FinishRecording(samples []Sample) *RunResult {
	p.samples = samples
	return &RunResult{Profiles: []*Profile{p.Finish(0, 0)}, bufs: []*[]Sample{p.buf}}
}
