// Package obs is the live observability layer: a zero-dependency,
// race-safe metrics registry (counters, gauges, histograms, with labeled
// variants) that renders in the Prometheus text exposition format, plus an
// HTTP admin listener (metrics, health, status snapshots, pprof) and a
// sampled push-lifecycle tracer.
//
// The registry is deliberately small: hot paths touch only atomics (no
// locks, no allocation), and everything heavier — family lookup, label
// resolution, exposition — happens either at construction time or at
// scrape time. It is the one source of a running server's numbers: the
// end-of-run staleness, waits and drop counts a caller reads back are the
// series a scrape exports, safe to read while writers are still active.
package obs

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
)

// metricKind discriminates exposition families.
type metricKind int

const (
	kindCounter metricKind = iota
	kindGauge
	kindGaugeFunc
	kindHistogram
)

func (k metricKind) String() string {
	switch k {
	case kindCounter:
		return "counter"
	case kindGauge, kindGaugeFunc:
		return "gauge"
	case kindHistogram:
		return "histogram"
	}
	return "untyped"
}

// Registry owns a set of metric families and renders them. The zero value
// is not usable; call NewRegistry. All methods are safe for concurrent
// use. Registration is idempotent: asking twice for the same name returns
// the same metric, and asking with a conflicting kind or label set panics
// (a programming error, not a runtime condition).
type Registry struct {
	mu       sync.Mutex
	families []*family
	byName   map[string]*family
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{byName: make(map[string]*family)}
}

// family is one named metric family: a singleton or a labeled set of
// children sharing name, help, kind, and (for histograms) buckets.
type family struct {
	name    string
	help    string
	kind    metricKind
	labels  []string  // label names; nil for singletons
	buckets []float64 // histogram upper bounds, sorted, no +Inf

	mu       sync.Mutex
	children map[string]any // label-value key -> *Counter/*Gauge/*Histogram
	order    []string       // child keys in first-seen order
	fn       func() float64 // kindGaugeFunc only
}

// lookup returns the family registered under name, creating it on first
// use and validating compatibility afterwards.
func (r *Registry) lookup(name, help string, kind metricKind, labels []string, buckets []float64) *family {
	r.mu.Lock()
	defer r.mu.Unlock()
	if f, ok := r.byName[name]; ok {
		if f.kind != kind || len(f.labels) != len(labels) {
			panic(fmt.Sprintf("obs: metric %q re-registered with a different kind or label set", name))
		}
		for i := range labels {
			if f.labels[i] != labels[i] {
				panic(fmt.Sprintf("obs: metric %q re-registered with different labels", name))
			}
		}
		return f
	}
	f := &family{
		name:     name,
		help:     help,
		kind:     kind,
		labels:   labels,
		buckets:  buckets,
		children: make(map[string]any),
	}
	r.byName[name] = f
	r.families = append(r.families, f)
	return f
}

// child returns the family's metric for the given label values, creating
// it on first use.
func (f *family) child(values []string) any {
	if len(values) != len(f.labels) {
		panic(fmt.Sprintf("obs: metric %q wants %d label value(s), got %d", f.name, len(f.labels), len(values)))
	}
	key := strings.Join(values, "\x1f")
	f.mu.Lock()
	defer f.mu.Unlock()
	if m, ok := f.children[key]; ok {
		return m
	}
	var m any
	switch f.kind {
	case kindCounter:
		m = &Counter{}
	case kindGauge:
		m = &Gauge{}
	case kindHistogram:
		m = newHistogram(f.buckets)
	default:
		panic("obs: gauge funcs cannot be labeled")
	}
	f.children[key] = m
	f.order = append(f.order, key)
	return m
}

// Counter is a monotonically increasing integer counter.
type Counter struct{ v atomic.Uint64 }

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n.
func (c *Counter) Add(n uint64) { c.v.Add(n) }

// Value returns the current count.
func (c *Counter) Value() uint64 { return c.v.Load() }

// Gauge is a float64 that can go up and down.
type Gauge struct{ bits atomic.Uint64 }

// Set replaces the gauge's value.
func (g *Gauge) Set(v float64) { g.bits.Store(math.Float64bits(v)) }

// Add adjusts the gauge by d (CAS loop; safe for concurrent adders).
func (g *Gauge) Add(d float64) {
	for {
		old := g.bits.Load()
		next := math.Float64bits(math.Float64frombits(old) + d)
		if g.bits.CompareAndSwap(old, next) {
			return
		}
	}
}

// Value returns the current value.
func (g *Gauge) Value() float64 { return math.Float64frombits(g.bits.Load()) }

// Histogram counts observations into cumulative buckets and tracks their
// sum. Observations are lock-free: a binary search over the (immutable)
// upper bounds plus three atomic adds.
type Histogram struct {
	upper   []float64 // sorted upper bounds, no +Inf
	counts  []uint64  // per-bucket (non-cumulative) counts, atomic access
	count   atomic.Uint64
	sumBits atomic.Uint64
}

func newHistogram(buckets []float64) *Histogram {
	upper := make([]float64, len(buckets))
	copy(upper, buckets)
	sort.Float64s(upper)
	return &Histogram{upper: upper, counts: make([]uint64, len(upper)+1)}
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	i := sort.SearchFloat64s(h.upper, v) // first bucket with upper >= v
	atomic.AddUint64(&h.counts[i], 1)
	h.count.Add(1)
	for {
		old := h.sumBits.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if h.sumBits.CompareAndSwap(old, next) {
			return
		}
	}
}

// Count returns the number of observations.
func (h *Histogram) Count() uint64 { return h.count.Load() }

// Sum returns the sum of observed values.
func (h *Histogram) Sum() float64 { return math.Float64frombits(h.sumBits.Load()) }

// snapshot returns cumulative bucket counts aligned with h.upper plus the
// +Inf bucket (== total), and the sum.
func (h *Histogram) snapshot() (cum []uint64, sum float64) {
	cum = make([]uint64, len(h.counts))
	var running uint64
	for i := range h.counts {
		running += atomic.LoadUint64(&h.counts[i])
		cum[i] = running
	}
	return cum, h.Sum()
}

// CounterVec is a counter family with labels.
type CounterVec struct{ f *family }

// With returns the counter for the given label values.
func (v CounterVec) With(values ...string) *Counter { return v.f.child(values).(*Counter) }

// GaugeVec is a gauge family with labels.
type GaugeVec struct{ f *family }

// With returns the gauge for the given label values.
func (v GaugeVec) With(values ...string) *Gauge { return v.f.child(values).(*Gauge) }

// HistogramVec is a histogram family with labels.
type HistogramVec struct{ f *family }

// With returns the histogram for the given label values.
func (v HistogramVec) With(values ...string) *Histogram { return v.f.child(values).(*Histogram) }

// Counter registers (or returns) the named singleton counter.
func (r *Registry) Counter(name, help string) *Counter {
	return r.lookup(name, help, kindCounter, nil, nil).child(nil).(*Counter)
}

// CounterVec registers (or returns) the named labeled counter family.
func (r *Registry) CounterVec(name, help string, labels ...string) CounterVec {
	return CounterVec{r.lookup(name, help, kindCounter, labels, nil)}
}

// Gauge registers (or returns) the named singleton gauge.
func (r *Registry) Gauge(name, help string) *Gauge {
	return r.lookup(name, help, kindGauge, nil, nil).child(nil).(*Gauge)
}

// GaugeVec registers (or returns) the named labeled gauge family.
func (r *Registry) GaugeVec(name, help string, labels ...string) GaugeVec {
	return GaugeVec{r.lookup(name, help, kindGauge, labels, nil)}
}

// GaugeFunc registers a gauge whose value is computed at scrape time.
// Re-registering the same name replaces the function; fn must be safe to
// call from the scrape goroutine.
func (r *Registry) GaugeFunc(name, help string, fn func() float64) {
	f := r.lookup(name, help, kindGaugeFunc, nil, nil)
	f.mu.Lock()
	f.fn = fn
	f.mu.Unlock()
}

// Histogram registers (or returns) the named singleton histogram with the
// given bucket upper bounds (+Inf is implicit).
func (r *Registry) Histogram(name, help string, buckets []float64) *Histogram {
	return r.lookup(name, help, kindHistogram, nil, buckets).child(nil).(*Histogram)
}

// HistogramVec registers (or returns) the named labeled histogram family.
func (r *Registry) HistogramVec(name, help string, buckets []float64, labels ...string) HistogramVec {
	return HistogramVec{r.lookup(name, help, kindHistogram, labels, buckets)}
}

// LatencyBuckets is the default bucket ladder for durations in seconds:
// 10µs up to 10s.
var LatencyBuckets = []float64{
	1e-5, 2.5e-5, 5e-5, 1e-4, 2.5e-4, 5e-4,
	1e-3, 2.5e-3, 5e-3, 1e-2, 2.5e-2, 5e-2,
	0.1, 0.25, 0.5, 1, 2.5, 5, 10,
}

// SizeBuckets is a power-of-two ladder for small counts (batch sizes,
// queue depths): 1 up to 256.
var SizeBuckets = []float64{1, 2, 4, 8, 16, 32, 64, 128, 256}

// StalenessBuckets covers the iteration-staleness range the DSSP policies
// operate in (sL..sU rarely exceeds a few dozen).
var StalenessBuckets = []float64{0, 1, 2, 3, 4, 6, 8, 12, 16, 24, 32, 64}

// formatFloat renders a sample value the way Prometheus expects.
func formatFloat(v float64) string {
	switch {
	case math.IsInf(v, 1):
		return "+Inf"
	case math.IsInf(v, -1):
		return "-Inf"
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

var helpEscaper = strings.NewReplacer(`\`, `\\`, "\n", `\n`)
var labelEscaper = strings.NewReplacer(`\`, `\\`, "\n", `\n`, `"`, `\"`)

// renderLabels formats {a="x",b="y"} for the family's label names and a
// child key, with extra (e.g. le) appended. Returns "" when empty.
func renderLabels(names []string, key string, extraName, extraValue string) string {
	if len(names) == 0 && extraName == "" {
		return ""
	}
	var b strings.Builder
	b.WriteByte('{')
	if len(names) > 0 {
		values := strings.Split(key, "\x1f")
		for i, n := range names {
			if i > 0 {
				b.WriteByte(',')
			}
			b.WriteString(n)
			b.WriteString(`="`)
			b.WriteString(labelEscaper.Replace(values[i]))
			b.WriteByte('"')
		}
	}
	if extraName != "" {
		if len(names) > 0 {
			b.WriteByte(',')
		}
		b.WriteString(extraName)
		b.WriteString(`="`)
		b.WriteString(extraValue)
		b.WriteByte('"')
	}
	b.WriteByte('}')
	return b.String()
}

// WriteProm renders every family in registration order using the
// Prometheus text exposition format (version 0.0.4).
func (r *Registry) WriteProm(w io.Writer) error {
	r.mu.Lock()
	families := make([]*family, len(r.families))
	copy(families, r.families)
	r.mu.Unlock()

	var b strings.Builder
	for _, f := range families {
		f.mu.Lock()
		keys := make([]string, len(f.order))
		copy(keys, f.order)
		children := make([]any, len(keys))
		for i, k := range keys {
			children[i] = f.children[k]
		}
		fn := f.fn
		f.mu.Unlock()

		if f.kind == kindGaugeFunc && fn == nil {
			continue
		}
		if f.help != "" {
			fmt.Fprintf(&b, "# HELP %s %s\n", f.name, helpEscaper.Replace(f.help))
		}
		fmt.Fprintf(&b, "# TYPE %s %s\n", f.name, f.kind)
		if f.kind == kindGaugeFunc {
			fmt.Fprintf(&b, "%s %s\n", f.name, formatFloat(fn()))
			continue
		}
		for i, key := range keys {
			switch m := children[i].(type) {
			case *Counter:
				fmt.Fprintf(&b, "%s%s %d\n", f.name, renderLabels(f.labels, key, "", ""), m.Value())
			case *Gauge:
				fmt.Fprintf(&b, "%s%s %s\n", f.name, renderLabels(f.labels, key, "", ""), formatFloat(m.Value()))
			case *Histogram:
				cum, sum := m.snapshot()
				for bi, upper := range m.upper {
					fmt.Fprintf(&b, "%s_bucket%s %d\n", f.name, renderLabels(f.labels, key, "le", formatFloat(upper)), cum[bi])
				}
				fmt.Fprintf(&b, "%s_bucket%s %d\n", f.name, renderLabels(f.labels, key, "le", "+Inf"), cum[len(cum)-1])
				fmt.Fprintf(&b, "%s_sum%s %s\n", f.name, renderLabels(f.labels, key, "", ""), formatFloat(sum))
				fmt.Fprintf(&b, "%s_count%s %d\n", f.name, renderLabels(f.labels, key, "", ""), cum[len(cum)-1])
			}
		}
	}
	_, err := io.WriteString(w, b.String())
	return err
}

// Snapshot flattens the registry into name{labels} -> value. Counters and
// gauges map directly; histograms contribute _sum and _count entries
// (buckets are an exposition concern, not a summary one). Gauge funcs are
// evaluated. The result is a stable post-run summary for experiment
// reports and end-of-run prints.
func (r *Registry) Snapshot() map[string]float64 {
	r.mu.Lock()
	families := make([]*family, len(r.families))
	copy(families, r.families)
	r.mu.Unlock()

	out := make(map[string]float64)
	for _, f := range families {
		f.mu.Lock()
		keys := make([]string, len(f.order))
		copy(keys, f.order)
		children := make([]any, len(keys))
		for i, k := range keys {
			children[i] = f.children[k]
		}
		fn := f.fn
		f.mu.Unlock()

		if f.kind == kindGaugeFunc {
			if fn != nil {
				out[f.name] = fn()
			}
			continue
		}
		for i, key := range keys {
			labels := renderLabels(f.labels, key, "", "")
			switch m := children[i].(type) {
			case *Counter:
				out[f.name+labels] = float64(m.Value())
			case *Gauge:
				out[f.name+labels] = m.Value()
			case *Histogram:
				out[f.name+"_sum"+labels] = m.Sum()
				out[f.name+"_count"+labels] = float64(m.Count())
			}
		}
	}
	return out
}
