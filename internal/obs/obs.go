// Package obs is the dependency-free observability core of the runtime
// datapath: atomic counters and gauges, fixed-bucket histograms, and a
// named registry with byte-deterministic Prometheus-text exposition.
//
// The paper's 50-year experiment (§4) is only operable if, decades in,
// whoever has inherited it can ask a live process whether the "some data
// every week" contract is still being met — without attaching a
// debugger, and without the answer depending on which of three rewrites
// of a metrics vendor's client library is current that decade. So this
// package is stdlib-only and deliberately small: the exposition format
// is the plain Prometheus text format (readable by a human with curl if
// every scraper has bit-rotted), metric values are plain atomics cheap
// enough for the ingest hot path, and exposition is byte-deterministic
// for a given sequence of observations, so two runs of a seeded workload
// produce identical /metrics bytes — the same seed-identifies-the-run
// contract the simulator keeps.
//
// Time never leaks in ambiently: histograms that measure durations take
// an injectable Clock, so instrumented code hosted inside the simulator's
// virtual-time packages stays deterministic and centurylint-clean, while
// daemons pass ProcessClock (process-relative wall time).
package obs

import (
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Clock is an injectable monotone time source: it returns the elapsed
// duration since some fixed origin (process start, simulation zero).
// Durations measured as differences of its readings are origin-free.
type Clock func() time.Duration

// ProcessClock returns the daemons' default clock: monotone time since
// the moment this function was called.
func ProcessClock() Clock {
	start := time.Now()
	return func() time.Duration { return time.Since(start) }
}

// Counter is a monotonically increasing atomic counter.
type Counter struct{ v atomic.Uint64 }

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n.
func (c *Counter) Add(n uint64) { c.v.Add(n) }

// Value returns the current count.
func (c *Counter) Value() uint64 { return c.v.Load() }

// Gauge is an atomic instantaneous value.
type Gauge struct{ bits atomic.Uint64 }

// Set stores v.
func (g *Gauge) Set(v float64) { g.bits.Store(math.Float64bits(v)) }

// Add adjusts the gauge by delta (CAS loop; safe for concurrent use).
func (g *Gauge) Add(delta float64) {
	for {
		old := g.bits.Load()
		next := math.Float64bits(math.Float64frombits(old) + delta)
		if g.bits.CompareAndSwap(old, next) {
			return
		}
	}
}

// Value returns the current value.
func (g *Gauge) Value() float64 { return math.Float64frombits(g.bits.Load()) }

// DefBuckets are the default latency buckets in seconds: 100µs to 10s,
// the range an ingest/IO path plausibly spans.
var DefBuckets = []float64{
	0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005, 0.01,
	0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10,
}

// Histogram is a fixed-bucket histogram of float64 observations
// (convention: seconds). Buckets are set at construction and never
// reallocated; Observe is a bounded scan over them plus two atomics —
// cheap enough for a hot path, and allocation-free.
type Histogram struct {
	clock  Clock
	uppers []float64       // sorted inclusive upper bounds; +Inf implicit
	counts []atomic.Uint64 // one per upper bound
	count  atomic.Uint64   // total observations (the +Inf bucket)
	sum    atomic.Uint64   // float64 bits, CAS-accumulated
}

func newHistogram(buckets []float64, clock Clock) *Histogram {
	if len(buckets) == 0 {
		buckets = DefBuckets
	}
	uppers := append([]float64(nil), buckets...)
	sort.Float64s(uppers)
	for i := 1; i < len(uppers); i++ {
		if uppers[i] == uppers[i-1] {
			panic(fmt.Sprintf("obs: duplicate histogram bucket %v", uppers[i]))
		}
	}
	if clock == nil {
		clock = ProcessClock()
	}
	return &Histogram{clock: clock, uppers: uppers, counts: make([]atomic.Uint64, len(uppers))}
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	h.count.Add(1)
	for {
		old := h.sum.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if h.sum.CompareAndSwap(old, next) {
			break
		}
	}
	for i, u := range h.uppers {
		if v <= u {
			h.counts[i].Add(1)
			return
		}
	}
}

// Now reads the histogram's clock: the start of a timed section.
func (h *Histogram) Now() time.Duration { return h.clock() }

// ObserveSince records the elapsed seconds from start (a prior Now
// reading) to the clock's current reading.
func (h *Histogram) ObserveSince(start time.Duration) {
	h.Observe((h.clock() - start).Seconds())
}

// Count returns the total number of observations.
func (h *Histogram) Count() uint64 { return h.count.Load() }

// Sum returns the sum of all observed values.
func (h *Histogram) Sum() float64 { return math.Float64frombits(h.sum.Load()) }

// metric is anything the registry can expose.
type metric interface {
	metricType() string                     // "counter" | "gauge" | "histogram"
	sample(name string, b *strings.Builder) // exposition lines, no HELP/TYPE
}

func (c *Counter) metricType() string { return "counter" }
func (c *Counter) sample(name string, b *strings.Builder) {
	b.WriteString(name)
	b.WriteByte(' ')
	b.WriteString(strconv.FormatUint(c.Value(), 10))
	b.WriteByte('\n')
}

func (g *Gauge) metricType() string { return "gauge" }
func (g *Gauge) sample(name string, b *strings.Builder) {
	b.WriteString(name)
	b.WriteByte(' ')
	b.WriteString(formatFloat(g.Value()))
	b.WriteByte('\n')
}

func (h *Histogram) metricType() string                     { return "histogram" }
func (h *Histogram) sample(name string, b *strings.Builder) { h.sampleLabelled(name, "", b) }

// sampleLabelled writes the histogram's series, each carrying label (a
// rendered `key="value"` pair, or empty) ahead of its own le label.
func (h *Histogram) sampleLabelled(name, label string, b *strings.Builder) {
	// Cumulative bucket counts, per the exposition format. Reading the
	// buckets while observations race is allowed to tear between buckets
	// (each bucket is individually atomic); a deterministic workload
	// scraped at quiescence is exactly reproducible.
	sep, braced := "", ""
	if label != "" {
		sep, braced = label+",", "{"+label+"}"
	}
	var cum uint64
	for i, u := range h.uppers {
		cum += h.counts[i].Load()
		b.WriteString(name)
		b.WriteString(`_bucket{`)
		b.WriteString(sep)
		b.WriteString(`le="`)
		b.WriteString(formatFloat(u))
		b.WriteString(`"} `)
		b.WriteString(strconv.FormatUint(cum, 10))
		b.WriteByte('\n')
	}
	b.WriteString(name)
	b.WriteString(`_bucket{`)
	b.WriteString(sep)
	b.WriteString(`le="+Inf"} `)
	b.WriteString(strconv.FormatUint(h.Count(), 10))
	b.WriteByte('\n')
	b.WriteString(name)
	b.WriteString("_sum")
	b.WriteString(braced)
	b.WriteByte(' ')
	b.WriteString(formatFloat(h.Sum()))
	b.WriteByte('\n')
	b.WriteString(name)
	b.WriteString("_count")
	b.WriteString(braced)
	b.WriteByte(' ')
	b.WriteString(strconv.FormatUint(h.Count(), 10))
	b.WriteByte('\n')
}

// histogramVec is a family of histograms under one name, told apart by
// one label whose values are fixed at registration: no lookup, no map and
// no allocation stand between an observation and its histogram.
type histogramVec struct {
	label  string
	values []string
	hists  []*Histogram
}

func (v *histogramVec) metricType() string { return "histogram" }
func (v *histogramVec) sample(name string, b *strings.Builder) {
	for i, h := range v.hists {
		h.sampleLabelled(name, v.label+`="`+v.values[i]+`"`, b)
	}
}

// counterFunc exposes an externally owned monotone counter (an atomic a
// subsystem already keeps privately) without copying or double counting.
type counterFunc func() uint64

func (f counterFunc) metricType() string { return "counter" }
func (f counterFunc) sample(name string, b *strings.Builder) {
	b.WriteString(name)
	b.WriteByte(' ')
	b.WriteString(strconv.FormatUint(f(), 10))
	b.WriteByte('\n')
}

// gaugeFunc exposes an externally owned instantaneous value.
type gaugeFunc func() float64

func (f gaugeFunc) metricType() string { return "gauge" }
func (f gaugeFunc) sample(name string, b *strings.Builder) {
	b.WriteString(name)
	b.WriteByte(' ')
	b.WriteString(formatFloat(f()))
	b.WriteByte('\n')
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

// Registry is a named set of metrics. Registration panics on an invalid
// or duplicate name — both are programming errors, caught at daemon
// boot, exactly like a duplicate flag. Safe for concurrent use.
type Registry struct {
	mu      sync.Mutex
	metrics map[string]*entry
}

type entry struct {
	name, help string
	m          metric
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{metrics: make(map[string]*entry)}
}

func (r *Registry) register(name, help string, m metric) {
	if !validName(name) {
		panic(fmt.Sprintf("obs: invalid metric name %q", name))
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, dup := r.metrics[name]; dup {
		panic(fmt.Sprintf("obs: duplicate metric %q", name))
	}
	r.metrics[name] = &entry{name: name, help: help, m: m}
}

// Counter registers and returns a new counter.
func (r *Registry) Counter(name, help string) *Counter {
	c := &Counter{}
	r.register(name, help, c)
	return c
}

// Gauge registers and returns a new gauge.
func (r *Registry) Gauge(name, help string) *Gauge {
	g := &Gauge{}
	r.register(name, help, g)
	return g
}

// CounterFunc registers a counter whose value is read from fn at
// exposition time: the bridge for counters a subsystem already keeps.
// fn must be safe for concurrent use and monotone.
func (r *Registry) CounterFunc(name, help string, fn func() uint64) {
	r.register(name, help, counterFunc(fn))
}

// GaugeFunc registers a gauge read from fn at exposition time.
func (r *Registry) GaugeFunc(name, help string, fn func() float64) {
	r.register(name, help, gaugeFunc(fn))
}

// Histogram registers and returns a histogram with the given inclusive
// upper bounds (nil means DefBuckets) and clock (nil means a fresh
// ProcessClock). The clock only matters to ObserveSince/Now; Observe
// takes pre-measured values.
func (r *Registry) Histogram(name, help string, buckets []float64, clock Clock) *Histogram {
	h := newHistogram(buckets, clock)
	r.register(name, help, h)
	return h
}

// HistogramVec registers one histogram per value of a single label (a
// stage, a phase) under one metric name, and returns them in the order of
// values. The label name and values must be valid metric-name tokens;
// like a duplicate name, anything else is a programming error.
func (r *Registry) HistogramVec(name, help, label string, values []string, buckets []float64, clock Clock) []*Histogram {
	v := &histogramVec{label: label, values: append([]string(nil), values...)}
	for _, val := range append([]string{label}, values...) {
		if !validName(val) {
			panic(fmt.Sprintf("obs: invalid label token %q on %s", val, name))
		}
	}
	for range values {
		v.hists = append(v.hists, newHistogram(buckets, clock))
	}
	r.register(name, help, v)
	return v.hists
}

// Exposition renders every registered metric in the Prometheus text
// format, sorted by metric name. For a fixed sequence of observations
// the output is byte-identical run to run: names are sorted, integer
// samples render via FormatUint, floats via the shortest round-trip
// form. Value reads happen after the registry lock is released, so a
// CounterFunc may take its subsystem's own locks freely.
func (r *Registry) Exposition() []byte {
	r.mu.Lock()
	entries := make([]*entry, 0, len(r.metrics))
	for _, e := range r.metrics {
		entries = append(entries, e)
	}
	r.mu.Unlock()
	sort.Slice(entries, func(i, j int) bool { return entries[i].name < entries[j].name })

	var b strings.Builder
	for _, e := range entries {
		b.WriteString("# HELP ")
		b.WriteString(e.name)
		b.WriteByte(' ')
		b.WriteString(escapeHelp(e.help))
		b.WriteByte('\n')
		b.WriteString("# TYPE ")
		b.WriteString(e.name)
		b.WriteByte(' ')
		b.WriteString(e.m.metricType())
		b.WriteByte('\n')
		e.m.sample(e.name, &b)
	}
	return []byte(b.String())
}

func escapeHelp(s string) string {
	s = strings.ReplaceAll(s, `\`, `\\`)
	return strings.ReplaceAll(s, "\n", `\n`)
}

// validName checks the Prometheus metric-name grammar:
// [a-zA-Z_:][a-zA-Z0-9_:]*
func validName(s string) bool {
	if s == "" {
		return false
	}
	for i, c := range s {
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c == '_', c == ':':
		case c >= '0' && c <= '9':
			if i == 0 {
				return false
			}
		default:
			return false
		}
	}
	return true
}
