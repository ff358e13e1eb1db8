package obs

import "testing"

// TestMetricPrimitivesAllocFree pins the alloc-free contract of every
// metric primitive that may sit on a per-packet path — a counter bump
// per disposition, a gauge publish, a latency sample: zero heap
// allocations. A regression here (a fmt call, a boxed value, a closure)
// fails on any host. Run with -count=2+ to shake out warm-up noise.
func TestMetricPrimitivesAllocFree(t *testing.T) {
	reg := NewRegistry()
	c := reg.Counter("alloc_test_total", "alloc regression counter")
	g := reg.Gauge("alloc_test_depth", "alloc regression gauge")
	h := reg.Histogram("alloc_test_seconds", "alloc regression histogram", nil, nil)

	cases := []struct {
		name string
		fn   func()
	}{
		{"Counter.Inc", func() { c.Inc() }},
		{"Counter.Add", func() { c.Add(3) }},
		{"Gauge.Set", func() { g.Set(1.5) }},
		{"Gauge.Add", func() { g.Add(0.25) }},
		{"Histogram.Observe", func() { h.Observe(0.0042) }},
		{"Histogram.ObserveSince", func() { h.ObserveSince(h.Now()) }},
	}
	for _, tc := range cases {
		if got := testing.AllocsPerRun(1000, tc.fn); got != 0 {
			t.Errorf("%s allocates %.1f times per call, want 0", tc.name, got)
		}
	}
}
