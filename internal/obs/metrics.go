// Package obs is the observability layer of the continuous-profiling
// service: a dependency-free metrics registry (counters, gauges, histograms
// with fixed bucket layouts) with Prometheus text exposition, a structured
// leveled logger built on log/slog, and HTTP middleware that instruments a
// request path without touching its behavior.
//
// Design constraints, in order:
//
//   - Free. Instrumented code must produce byte-for-byte the output of
//     uninstrumented code: metrics are side channels (atomic counters,
//     wall-clock histograms) that never feed back into analysis results.
//   - Nil-safe. Every metric method no-ops on a nil receiver, so packages
//     can be instrumented unconditionally and pay one nil check when no
//     registry is installed.
//   - Deterministic exposition. WritePrometheus renders families sorted by
//     name and series sorted by label values, so scrapes diff cleanly.
package obs

import (
	"fmt"
	"io"
	"math"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
)

// atomicFloat is a float64 updated via CAS on its bit pattern.
type atomicFloat struct{ bits atomic.Uint64 }

func (f *atomicFloat) add(v float64) {
	for {
		old := f.bits.Load()
		if f.bits.CompareAndSwap(old, math.Float64bits(math.Float64frombits(old)+v)) {
			return
		}
	}
}

func (f *atomicFloat) set(v float64) { f.bits.Store(math.Float64bits(v)) }

func (f *atomicFloat) load() float64 { return math.Float64frombits(f.bits.Load()) }

// Counter is a monotonically increasing metric. Methods on a nil *Counter
// are no-ops.
type Counter struct{ v atomicFloat }

// Inc adds 1.
func (c *Counter) Inc() { c.Add(1) }

// Add increases the counter; negative deltas are dropped (counters are
// monotonic by contract).
func (c *Counter) Add(v float64) {
	if c == nil || v < 0 {
		return
	}
	c.v.add(v)
}

// Value returns the current count.
func (c *Counter) Value() float64 {
	if c == nil {
		return 0
	}
	return c.v.load()
}

// Gauge is a metric that can go up and down. Methods on a nil *Gauge are
// no-ops.
type Gauge struct{ v atomicFloat }

// Set replaces the gauge value.
func (g *Gauge) Set(v float64) {
	if g == nil {
		return
	}
	g.v.set(v)
}

// Add shifts the gauge by v (negative deltas allowed).
func (g *Gauge) Add(v float64) {
	if g == nil {
		return
	}
	g.v.add(v)
}

// Inc adds 1.
func (g *Gauge) Inc() { g.Add(1) }

// Dec subtracts 1.
func (g *Gauge) Dec() { g.Add(-1) }

// Value returns the current value.
func (g *Gauge) Value() float64 {
	if g == nil {
		return 0
	}
	return g.v.load()
}

// Histogram counts observations into a fixed bucket layout. Methods on a nil
// *Histogram are no-ops.
type Histogram struct {
	upper  []float64 // sorted upper bounds, exclusive of +Inf
	counts []atomic.Uint64
	sum    atomicFloat
	count  atomic.Uint64
}

// Observe records one observation.
func (h *Histogram) Observe(v float64) { h.ObserveN(v, 1) }

// ObserveN records n observations of the same value v at once.
func (h *Histogram) ObserveN(v float64, n uint64) {
	if h == nil || n == 0 {
		return
	}
	// First bucket whose upper bound contains v; len(upper) = +Inf.
	i := sort.SearchFloat64s(h.upper, v)
	h.counts[i].Add(n)
	h.sum.add(v * float64(n))
	h.count.Add(n)
}

// Count returns the total number of observations.
func (h *Histogram) Count() uint64 {
	if h == nil {
		return 0
	}
	return h.count.Load()
}

// Sum returns the sum of all observations.
func (h *Histogram) Sum() float64 {
	if h == nil {
		return 0
	}
	return h.sum.load()
}

// DefBuckets is a latency bucket layout in seconds, matching the Prometheus
// client default.
var DefBuckets = []float64{.005, .01, .025, .05, .1, .25, .5, 1, 2.5, 5, 10}

// LinearBuckets returns n buckets starting at start, spaced by width.
func LinearBuckets(start, width float64, n int) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = start + float64(i)*width
	}
	return out
}

// metric kinds, also the Prometheus TYPE strings.
const (
	kindCounter   = "counter"
	kindGauge     = "gauge"
	kindHistogram = "histogram"
)

// family is one metric name: a type, a label schema, and a series per label
// value combination (a single unlabeled series for plain metrics).
type family struct {
	name    string
	help    string
	kind    string
	labels  []string
	buckets []float64

	mu     sync.Mutex
	series map[string]any // label-values key → *Counter | *Gauge | *Histogram
}

func (f *family) get(key string) (any, bool) {
	f.mu.Lock()
	defer f.mu.Unlock()
	m, ok := f.series[key]
	return m, ok
}

func (f *family) getOrCreate(key string) any {
	f.mu.Lock()
	defer f.mu.Unlock()
	if m, ok := f.series[key]; ok {
		return m
	}
	var m any
	switch f.kind {
	case kindCounter:
		m = &Counter{}
	case kindGauge:
		m = &Gauge{}
	case kindHistogram:
		m = &Histogram{
			upper:  f.buckets,
			counts: make([]atomic.Uint64, len(f.buckets)+1),
		}
	}
	f.series[key] = m
	return m
}

// Registry holds metric families and renders them in the Prometheus text
// exposition format. The zero value is not usable; call NewRegistry. All
// methods are safe for concurrent use. Registration is idempotent:
// re-requesting an existing (name, kind, labels) returns the same metric,
// and a kind or label-schema mismatch panics (a programming error, caught
// at startup).
type Registry struct {
	mu   sync.Mutex
	fams map[string]*family
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{fams: map[string]*family{}}
}

func (r *Registry) family(name, help, kind string, labels []string, buckets []float64) *family {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if f, ok := r.fams[name]; ok {
		if f.kind != kind || len(f.labels) != len(labels) {
			panic(fmt.Sprintf("obs: metric %q re-registered as %s%v, was %s%v",
				name, kind, labels, f.kind, f.labels))
		}
		for i := range labels {
			if f.labels[i] != labels[i] {
				panic(fmt.Sprintf("obs: metric %q label mismatch: %v vs %v", name, labels, f.labels))
			}
		}
		return f
	}
	f := &family{name: name, help: help, kind: kind, labels: labels, buckets: buckets, series: map[string]any{}}
	r.fams[name] = f
	return f
}

// Counter registers (or returns) an unlabeled counter.
func (r *Registry) Counter(name, help string) *Counter {
	if r == nil {
		return nil
	}
	return r.family(name, help, kindCounter, nil, nil).getOrCreate("").(*Counter)
}

// Gauge registers (or returns) an unlabeled gauge.
func (r *Registry) Gauge(name, help string) *Gauge {
	if r == nil {
		return nil
	}
	return r.family(name, help, kindGauge, nil, nil).getOrCreate("").(*Gauge)
}

// Histogram registers (or returns) an unlabeled histogram with the given
// bucket upper bounds (sorted ascending; +Inf is implicit).
func (r *Registry) Histogram(name, help string, buckets []float64) *Histogram {
	if r == nil {
		return nil
	}
	return r.family(name, help, kindHistogram, nil, buckets).getOrCreate("").(*Histogram)
}

// CounterVec is a counter family partitioned by labels. Methods on a nil
// *CounterVec are no-ops.
type CounterVec struct{ f *family }

// CounterVec registers (or returns) a labeled counter family.
func (r *Registry) CounterVec(name, help string, labels ...string) *CounterVec {
	if r == nil {
		return nil
	}
	return &CounterVec{r.family(name, help, kindCounter, labels, nil)}
}

// With returns the counter for one label-value combination.
func (v *CounterVec) With(values ...string) *Counter {
	if v == nil {
		return nil
	}
	return v.f.getOrCreate(labelKey(v.f, values)).(*Counter)
}

// GaugeVec is a gauge family partitioned by labels.
type GaugeVec struct{ f *family }

// GaugeVec registers (or returns) a labeled gauge family.
func (r *Registry) GaugeVec(name, help string, labels ...string) *GaugeVec {
	if r == nil {
		return nil
	}
	return &GaugeVec{r.family(name, help, kindGauge, labels, nil)}
}

// With returns the gauge for one label-value combination.
func (v *GaugeVec) With(values ...string) *Gauge {
	if v == nil {
		return nil
	}
	return v.f.getOrCreate(labelKey(v.f, values)).(*Gauge)
}

// HistogramVec is a histogram family partitioned by labels.
type HistogramVec struct{ f *family }

// HistogramVec registers (or returns) a labeled histogram family.
func (r *Registry) HistogramVec(name, help string, buckets []float64, labels ...string) *HistogramVec {
	if r == nil {
		return nil
	}
	return &HistogramVec{r.family(name, help, kindHistogram, labels, buckets)}
}

// With returns the histogram for one label-value combination.
func (v *HistogramVec) With(values ...string) *Histogram {
	if v == nil {
		return nil
	}
	return v.f.getOrCreate(labelKey(v.f, values)).(*Histogram)
}

// labelKey joins label values into the series key; \x00 cannot appear in a
// reasonable label value, so the join is unambiguous.
func labelKey(f *family, values []string) string {
	if len(values) != len(f.labels) {
		panic(fmt.Sprintf("obs: metric %q: %d label values for %d labels", f.name, len(values), len(f.labels)))
	}
	return strings.Join(values, "\x00")
}

// labelPairs renders {k="v",...} for a series key; extra appends additional
// pairs (the histogram le label).
func labelPairs(labels []string, key string, extra ...string) string {
	var pairs []string
	if len(labels) > 0 {
		values := strings.Split(key, "\x00")
		for i, l := range labels {
			pairs = append(pairs, l+`="`+escapeLabel(values[i])+`"`)
		}
	}
	pairs = append(pairs, extra...)
	if len(pairs) == 0 {
		return ""
	}
	return "{" + strings.Join(pairs, ",") + "}"
}

// escapeLabel applies the three exposition-format label escapes: backslash,
// newline, double quote.
func escapeLabel(v string) string {
	v = strings.ReplaceAll(v, `\`, `\\`)
	v = strings.ReplaceAll(v, "\n", `\n`)
	return strings.ReplaceAll(v, `"`, `\"`)
}

func formatFloat(v float64) string {
	switch {
	case math.IsInf(v, 1):
		return "+Inf"
	case math.IsInf(v, -1):
		return "-Inf"
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// WritePrometheus renders every registered family in the text exposition
// format, deterministically ordered (families by name, series by label
// values).
func (r *Registry) WritePrometheus(w io.Writer) {
	if r == nil {
		return
	}
	r.mu.Lock()
	names := make([]string, 0, len(r.fams))
	for name := range r.fams {
		names = append(names, name)
	}
	fams := make([]*family, 0, len(names))
	sort.Strings(names)
	for _, name := range names {
		fams = append(fams, r.fams[name])
	}
	r.mu.Unlock()

	for _, f := range fams {
		f.mu.Lock()
		keys := make([]string, 0, len(f.series))
		for k := range f.series {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		if f.help != "" {
			fmt.Fprintf(w, "# HELP %s %s\n", f.name, strings.ReplaceAll(f.help, "\n", " "))
		}
		fmt.Fprintf(w, "# TYPE %s %s\n", f.name, f.kind)
		for _, k := range keys {
			switch m := f.series[k].(type) {
			case *Counter:
				fmt.Fprintf(w, "%s%s %s\n", f.name, labelPairs(f.labels, k), formatFloat(m.Value()))
			case *Gauge:
				fmt.Fprintf(w, "%s%s %s\n", f.name, labelPairs(f.labels, k), formatFloat(m.Value()))
			case *Histogram:
				var cum uint64
				for i, ub := range m.upper {
					cum += m.counts[i].Load()
					le := fmt.Sprintf("le=%q", formatFloat(ub))
					fmt.Fprintf(w, "%s_bucket%s %d\n", f.name, labelPairs(f.labels, k, le), cum)
				}
				cum += m.counts[len(m.upper)].Load()
				fmt.Fprintf(w, "%s_bucket%s %d\n", f.name, labelPairs(f.labels, k, `le="+Inf"`), cum)
				fmt.Fprintf(w, "%s_sum%s %s\n", f.name, labelPairs(f.labels, k), formatFloat(m.Sum()))
				fmt.Fprintf(w, "%s_count%s %d\n", f.name, labelPairs(f.labels, k), cum)
			}
		}
		f.mu.Unlock()
	}
}

// Handler serves the registry in the Prometheus text exposition format
// (GET /metrics).
func (r *Registry) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		r.WritePrometheus(w)
	})
}
