package store

import (
	"testing"

	"vprof/internal/faultfs"
)

// BenchmarkAppendFrame times one segment append of a 1,141,007-byte
// payload, the size of merged b8 normal run 0 (root BenchmarkPush): frame
// header and CRC32C, one Write and, in the fsync case, the fsync a push's
// ack waits for. The segment is cut back to its header every 56 appends,
// about the 64 MiB at which the store rolls over to a new one.
func BenchmarkAppendFrame(b *testing.B) {
	payload := make([]byte, 1141007)
	for i := range payload {
		payload[i] = byte(i * 7)
	}
	for _, c := range []struct {
		name   string
		noSync bool
	}{{"nosync", true}, {"fsync", false}} {
		b.Run(c.name, func(b *testing.B) {
			s := &Store{dir: b.TempDir(), fsys: faultfs.NewOS(), opts: Options{NoSync: c.noSync}}
			seg, err := s.openLog(segmentName(0), &segHeader)
			if err != nil {
				b.Fatal(err)
			}
			defer seg.f.Close()
			b.SetBytes(int64(len(payload)))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if i%56 == 55 {
					b.StopTimer()
					if seg.truncate(headerSize); seg.wedged != nil {
						b.Fatal(seg.wedged)
					}
					b.StartTimer()
				}
				if _, err := seg.appendFrame(payload); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
