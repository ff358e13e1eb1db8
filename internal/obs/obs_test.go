package obs

import (
	"bytes"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestCounter(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("requests_total", "requests seen")
	c.Inc()
	c.Add(41)
	if got := c.Value(); got != 42 {
		t.Fatalf("counter = %d, want 42", got)
	}
	exp := string(r.Exposition())
	want := "# HELP requests_total requests seen\n# TYPE requests_total counter\nrequests_total 42\n"
	if exp != want {
		t.Fatalf("exposition:\n%s\nwant:\n%s", exp, want)
	}
}

func TestGauge(t *testing.T) {
	r := NewRegistry()
	g := r.Gauge("queue_depth", "buffered payloads")
	g.Set(3)
	g.Add(-1)
	if got := g.Value(); got != 2 {
		t.Fatalf("gauge = %v, want 2", got)
	}
	if !strings.Contains(string(r.Exposition()), "queue_depth 2\n") {
		t.Fatalf("exposition missing gauge sample:\n%s", r.Exposition())
	}
}

func TestFuncMetrics(t *testing.T) {
	r := NewRegistry()
	n := uint64(7)
	r.CounterFunc("external_total", "externally owned", func() uint64 { return n })
	r.GaugeFunc("level", "externally owned", func() float64 { return 1.5 })
	exp := string(r.Exposition())
	for _, want := range []string{"external_total 7\n", "level 1.5\n"} {
		if !strings.Contains(exp, want) {
			t.Fatalf("exposition missing %q:\n%s", want, exp)
		}
	}
}

func TestHistogramBucketsAndClock(t *testing.T) {
	var now time.Duration
	clock := func() time.Duration { return now }
	r := NewRegistry()
	h := r.Histogram("op_seconds", "op latency", []float64{0.25, 0.5, 1}, clock)

	h.Observe(0.125) // le=0.25
	h.Observe(0.375) // le=0.5
	h.Observe(0.75)  // le=1
	h.Observe(5)     // +Inf only

	start := h.Now()
	now += 250 * time.Millisecond
	h.ObserveSince(start) // 0.25 -> le=0.25

	if h.Count() != 5 {
		t.Fatalf("count = %d, want 5", h.Count())
	}
	exp := string(r.Exposition())
	for _, want := range []string{
		`op_seconds_bucket{le="0.25"} 2`,
		`op_seconds_bucket{le="0.5"} 3`,
		`op_seconds_bucket{le="1"} 4`,
		`op_seconds_bucket{le="+Inf"} 5`,
		"op_seconds_count 5",
	} {
		if !strings.Contains(exp, want+"\n") {
			t.Fatalf("exposition missing %q:\n%s", want, exp)
		}
	}
	// All observed values are binary-exact, so the sum is too: the
	// shortest-form formatter renders it identically on every run.
	if !strings.Contains(exp, "op_seconds_sum 6.5\n") {
		t.Fatalf("exposition sum line wrong:\n%s", exp)
	}
}

// TestExpositionDeterministic is the byte-identity contract: two
// registries fed the identical observation sequence render identical
// bytes, and re-scraping an idle registry is stable.
func TestExpositionDeterministic(t *testing.T) {
	build := func() *Registry {
		var now time.Duration
		r := NewRegistry()
		c := r.Counter("a_total", "a")
		g := r.Gauge("b", "b")
		h := r.Histogram("c_seconds", "c", nil, func() time.Duration { return now })
		for i := 0; i < 100; i++ {
			c.Add(uint64(i))
			g.Set(float64(i) / 3)
			start := h.Now()
			now += time.Duration(i) * time.Millisecond
			h.ObserveSince(start)
		}
		return r
	}
	r1, r2 := build(), build()
	e1, e2 := r1.Exposition(), r2.Exposition()
	if !bytes.Equal(e1, e2) {
		t.Fatalf("two identical runs rendered different bytes:\n%s\n---\n%s", e1, e2)
	}
	if !bytes.Equal(e1, r1.Exposition()) {
		t.Fatal("re-scraping an idle registry changed the bytes")
	}
}

func TestExpositionSorted(t *testing.T) {
	r := NewRegistry()
	r.Counter("zzz_total", "last")
	r.Counter("aaa_total", "first")
	r.Gauge("mmm", "middle")
	exp := string(r.Exposition())
	ia, im, iz := strings.Index(exp, "aaa_total"), strings.Index(exp, "mmm"), strings.Index(exp, "zzz_total")
	if !(ia < im && im < iz) {
		t.Fatalf("metrics not sorted by name:\n%s", exp)
	}
}

func TestRegistryPanics(t *testing.T) {
	r := NewRegistry()
	r.Counter("x_total", "x")
	mustPanic(t, "duplicate name", func() { r.Counter("x_total", "x") })
	mustPanic(t, "invalid name", func() { r.Counter("1bad", "x") })
	mustPanic(t, "empty name", func() { r.Counter("", "x") })
	mustPanic(t, "bad rune", func() { r.Counter("sp ace", "x") })
}

func mustPanic(t *testing.T, what string, fn func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Fatalf("%s: expected panic", what)
		}
	}()
	fn()
}

// TestConcurrentObservations exercises every mutable metric kind from
// many goroutines under -race and checks the totals are exact.
func TestConcurrentObservations(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("c_total", "c")
	g := r.Gauge("g", "g")
	h := r.Histogram("h_seconds", "h", []float64{0.5}, nil)

	const workers, each = 8, 10000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < each; i++ {
				c.Inc()
				g.Add(1)
				h.Observe(0.25)
			}
		}()
	}
	wg.Wait()

	if c.Value() != workers*each {
		t.Fatalf("counter = %d, want %d", c.Value(), workers*each)
	}
	if g.Value() != workers*each {
		t.Fatalf("gauge = %v, want %d", g.Value(), workers*each)
	}
	if h.Count() != workers*each {
		t.Fatalf("histogram count = %d, want %d", h.Count(), workers*each)
	}
	if got := h.Sum(); got != workers*each*0.25 {
		t.Fatalf("histogram sum = %v, want %v", got, workers*each*0.25)
	}
}

func TestHistogramDefaultsAndDupBuckets(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("d_seconds", "d", nil, nil)
	if len(h.uppers) != len(DefBuckets) {
		t.Fatalf("default buckets not applied: %d", len(h.uppers))
	}
	mustPanic(t, "duplicate buckets", func() {
		r.Histogram("e_seconds", "e", []float64{1, 1}, nil)
	})
}

// TestHistogramVec: one family, one HELP/TYPE header, a labelled series
// per value in registration order, each value's histogram independent —
// and an unlabelled histogram's exposition is byte-for-byte what it was.
func TestHistogramVec(t *testing.T) {
	var now time.Duration
	clock := func() time.Duration { return now }
	r := NewRegistry()
	hs := r.HistogramVec("stage_seconds", "time per stage", "stage", []string{"fold", "commit"}, []float64{0.5, 2}, clock)
	if len(hs) != 2 {
		t.Fatalf("%d histograms for 2 values", len(hs))
	}
	start := hs[1].Now()
	now = 1500 * time.Millisecond
	hs[1].ObserveSince(start)
	hs[0].Observe(0.25)
	plain := r.Histogram("plain_seconds", "no label", []float64{1}, clock)
	plain.Observe(3)

	want := `# HELP plain_seconds no label
# TYPE plain_seconds histogram
plain_seconds_bucket{le="1"} 0
plain_seconds_bucket{le="+Inf"} 1
plain_seconds_sum 3
plain_seconds_count 1
# HELP stage_seconds time per stage
# TYPE stage_seconds histogram
stage_seconds_bucket{stage="fold",le="0.5"} 1
stage_seconds_bucket{stage="fold",le="2"} 1
stage_seconds_bucket{stage="fold",le="+Inf"} 1
stage_seconds_sum{stage="fold"} 0.25
stage_seconds_count{stage="fold"} 1
stage_seconds_bucket{stage="commit",le="0.5"} 0
stage_seconds_bucket{stage="commit",le="2"} 1
stage_seconds_bucket{stage="commit",le="+Inf"} 1
stage_seconds_sum{stage="commit"} 1.5
stage_seconds_count{stage="commit"} 1
`
	if got := string(r.Exposition()); got != want {
		t.Fatalf("exposition:\n%s\nwant:\n%s", got, want)
	}
	if got := testing.AllocsPerRun(1000, func() { hs[0].ObserveSince(hs[0].Now()) }); got != 0 {
		t.Errorf("observing a family member allocates %.1f times per call, want 0", got)
	}
	mustPanic(t, "bad label", func() { r.HistogramVec("a_seconds", "", "bad-label", []string{"x"}, nil, nil) })
	mustPanic(t, "bad value", func() { r.HistogramVec("b_seconds", "", "stage", []string{`x"y`}, nil, nil) })
	mustPanic(t, "duplicate name", func() { r.HistogramVec("stage_seconds", "", "stage", []string{"x"}, nil, nil) })
}
