package main

import (
	"errors"
	"math"
	"testing"
	"time"
)

// Tests of the measuring code itself: a benchmark whose arithmetic is
// wrong is worse than none.

func TestPercentileAndMedian(t *testing.T) {
	s := newSample([]float64{5, 1, 4, 2, 3})
	if s.n() != 5 || s.p50() != 3 {
		t.Fatalf("n=%d p50=%v, want 5 and 3", s.n(), s.p50())
	}
	if got := newSample([]float64{4, 1, 3, 2}).p50(); got != 2.5 {
		t.Fatalf("even median %v, want 2.5", got)
	}
	hundred := make([]float64, 100)
	for i := range hundred {
		hundred[i] = float64(i + 1)
	}
	h := newSample(hundred)
	for _, c := range []struct{ p, want float64 }{{50, 50}, {90, 90}, {99, 99}, {99.9, 100}, {100, 100}, {1, 1}} {
		if got := h.pct(c.p); got != c.want {
			t.Errorf("p%v of 1..100 = %v, want %v", c.p, got, c.want)
		}
	}
	var empty sample
	if empty.p50() != 0 || empty.pct(99) != 0 {
		t.Error("an empty sample must read 0, not panic")
	}
}

// "The highest percentile that has at least ten samples beyond it."
func TestHighestTail(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{
		{20000, 99.9}, // 20 beyond p99.9
		{10000, 99.9}, // exactly 10 beyond
		{9999, 99},
		{1200, 99}, // 12 beyond p99
		{1000, 99}, // exactly 10
		{999, 98},
		{500, 98}, // 10 beyond p98
		{499, 95},
		{200, 95},
		{199, 90},
		{100, 90},
		{99, 75},
		{40, 75},
		{39, 50},
		{5, 50},
	} {
		if got := highestTail(c.n, 10); got != c.want {
			t.Errorf("highestTail(%d) = p%v, want p%v", c.n, got, c.want)
		}
	}
}

// quartiles must agree with Python's statistics.quantiles(v, n=4), which
// is what the acceptance procedure computes.
func TestQuartilesMatchPython(t *testing.T) {
	q1, q3 := quartiles([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10})
	if q1 != 2.75 || q3 != 8.25 {
		t.Fatalf("quartiles of 1..10 = %v, %v; Python gives 2.75, 8.25", q1, q3)
	}
	// statistics.quantiles([3, 1, 4, 1, 5, 9, 2, 6], n=4) == [1.25, 3.5, 5.75]
	q1, q3 = quartiles([]float64{3, 1, 4, 1, 5, 9, 2, 6})
	if q1 != 1.25 || q3 != 5.75 {
		t.Fatalf("quartiles = %v, %v; Python gives 1.25, 5.75", q1, q3)
	}
	if got, want := spread([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}), 5.5/5.5; math.Abs(got-want) > 1e-12 {
		t.Fatalf("spread = %v, want %v", got, want)
	}
	if spread([]float64{4}) != 0 {
		t.Fatal("one value has no spread")
	}
}

// fakeClock is a clock the open-loop scheduler can be stalled on.
type fakeClock struct{ now time.Time }

func (c *fakeClock) Now() time.Time        { return c.now }
func (c *fakeClock) Sleep(d time.Duration) { c.now = c.now.Add(d) }

// A stalled request must charge its delay to the requests it made wait:
// latency is counted from the due time, and the lateness is reported.
func TestOpenLoopCountsFromDueTime(t *testing.T) {
	clock := &fakeClock{now: time.Unix(1000, 0)}
	start := clock.now
	due := func(i int) time.Duration { return time.Duration(i) * 10 * time.Millisecond }
	boom := errors.New("boom")
	do := func(i int) error {
		switch i {
		case 2:
			clock.Sleep(35 * time.Millisecond) // the stall
		case 5:
			clock.Sleep(time.Millisecond)
			return boom
		default:
			clock.Sleep(time.Millisecond)
		}
		return nil
	}
	out := runOpenLoop(7, start, due, do, clock.Now, clock.Sleep)

	// Request 2 is due at 20 ms and returns at 55 ms. Request 3 was due at
	// 30 ms, starts 25 ms late and so takes 26 ms from its due time;
	// request 4 starts 16 ms late; request 5 (due 50) 7 ms late; request
	// 6 (due 60) is on time again.
	want := []struct{ latency, lag float64 }{
		{1, 0}, {1, 0}, {35, 0}, {26, 25}, {17, 16}, {8, 7}, {1, 0},
	}
	for i, w := range want {
		if got := out[i]; math.Abs(got.latencyMs-w.latency) > 1e-9 || math.Abs(got.lagMs-w.lag) > 1e-9 {
			t.Errorf("request %d: latency %v ms lag %v ms, want %v and %v", i, got.latencyMs, got.lagMs, w.latency, w.lag)
		}
	}
	if out[5].err != boom || out[4].err != nil {
		t.Errorf("errors misplaced: %v, %v", out[4].err, out[5].err)
	}

	// inWindow keeps the requests due in [from, to) and separates failures.
	lat, lag, idx, failed, first := inWindow(out, due, 20*time.Millisecond, 60*time.Millisecond)
	if len(lat) != 3 || len(lag) != 3 || failed != 1 || first != boom {
		t.Fatalf("inWindow kept %d, failed %d, first %v", len(lat), failed, first)
	}
	if idx[0] != 2 || idx[2] != 4 {
		t.Fatalf("inWindow kept requests %v", idx)
	}
}

// The window's figure is its best slice's: disturbed seconds, however
// many, must not move it as long as one second ran undisturbed.
func TestBestSlice(t *testing.T) {
	var samples []timed
	for s := 0; s < 6; s++ {
		n, ms := 100, 2.0 // an undisturbed second
		switch s {
		case 1, 2, 4:
			n, ms = 40, 9.0 // the hypervisor was elsewhere
		case 5:
			n, ms = 10, 0.5 // too few requests for its median to count
		}
		for i := 0; i < n; i++ {
			samples = append(samples, timed{at: float64(s) + float64(i)/float64(n), ms: ms + float64(i%3)})
		}
	}
	if got := bestRate(samples, 1, 6, 256); got != 25600 {
		t.Fatalf("best rate %v, want 25600", got)
	}
	if got, n := bestMedian(samples, 1, 6); got != 3 || n != 100 {
		t.Fatalf("best median %v over %d samples, want 3 over 100", got, n)
	}
	// Requests completing after the last whole slice are not in any.
	late := append(samples, timed{at: 6.5, ms: 0.01})
	if got, _ := bestMedian(late, 1, 6); got != 3 {
		t.Fatalf("a completion past the window moved the figure to %v", got)
	}
	// A phase too short to have a qualifying slice falls back to the
	// plain median.
	if got, n := bestMedian(samples[:5], 1, 1); n != 5 || got != 3 {
		t.Fatalf("short phase: median %v over %d", got, n)
	}
	if wholeSlices(12*time.Second) != 12 || wholeSlices(300*time.Millisecond) != 1 {
		t.Fatal("wholeSlices")
	}
}

func TestLoopStats(t *testing.T) {
	st := loopStats{began: time.Unix(0, 0), ended: time.Unix(3, 0), done: []timed{{0.1, 1}, {0.2, 2}, {1.5, 3}, {2.9, 4}, {3.2, 5}}}
	if got := st.perSecond(); len(got) != 3 || got[0] != 2 || got[1] != 1 || got[2] != 1 {
		t.Fatalf("perSecond = %v", got)
	}
	if got := st.latencies(); len(got) != 5 || got[4] != 5 {
		t.Fatalf("latencies = %v", got)
	}
}

func TestMergeLoops(t *testing.T) {
	start := time.Unix(10, 0)
	a := loopStats{began: start, ended: time.Unix(12, 0), attempted: 3, accepted: 512, done: []timed{{0.5, 1}, {1.5, 2}}, failed: 1, firstErr: errors.New("x")}
	b := loopStats{began: start, ended: time.Unix(13, 0), attempted: 1, accepted: 256, done: []timed{{0.25, 3}}, exhausted: true}
	m := mergeLoops([]loopStats{a, b})
	if m.seconds() != 3 || m.attempted != 4 || m.accepted != 768 || m.failed != 1 || !m.exhausted || m.firstErr == nil {
		t.Fatalf("merged %+v", m)
	}
	if len(m.done) != 3 {
		t.Fatalf("merged samples %v", m.done)
	}
}

func TestParseStatCPU(t *testing.T) {
	// A command name with spaces and parentheses, as the kernel prints it.
	stat := []byte("4242 (end pointd (x)) S 1 4242 4242 0 -1 4194560 1200 0 3 0 731 269 0 0 20 0 9 0 55555 123456789 2048 18446744073709551615 1 1 0 0 0 0 0 0 0 0 0 0 17 1 0 0 0 0 0")
	got, err := parseStatCPU(stat)
	if err != nil {
		t.Fatal(err)
	}
	if want := 10 * time.Second; got != want { // (731+269) ticks at 100 Hz
		t.Fatalf("cpu time %v, want %v", got, want)
	}
	for _, bad := range []string{"", "1 (x) S 1 2", "1 (x) S 1 2 3 4 5 6 7 8 9 10 eleven 12 13"} {
		if _, err := parseStatCPU([]byte(bad)); err == nil {
			t.Errorf("parseStatCPU(%q) accepted", bad)
		}
	}
}

func TestParseStatusKB(t *testing.T) {
	status := []byte("Name:\tendpointd\nVmPeak:\t 1300000 kB\nVmHWM:\t  405524 kB\nVmRSS:\t  300000 kB\nThreads:\t9\n")
	got, err := parseStatusKB(status, "VmHWM")
	if err != nil {
		t.Fatal(err)
	}
	if want := int64(405524) << 10; got != want {
		t.Fatalf("VmHWM %d bytes, want %d", got, want)
	}
	if _, err := parseStatusKB(status, "VmSwap"); err == nil {
		t.Error("a missing key must be an error, not zero")
	}
	if _, err := parseStatusKB([]byte("VmHWM:\t12 pages\n"), "VmHWM"); err == nil {
		t.Error("a line not in kB must be an error")
	}
}

func TestParseHostCPU(t *testing.T) {
	h, err := parseHostCPU([]byte("cpu  100 5 50 800 20 0 5 20 7 0\ncpu0 1 2 3\n"))
	if err != nil {
		t.Fatal(err)
	}
	if h.total != 1000 || h.steal != 20 || h.iowait != 20 {
		t.Fatalf("host cpu %+v, want total 1000 steal 20 iowait 20 (guest time is not added twice)", h)
	}
	if _, err := parseHostCPU([]byte("intr 1 2 3\n")); err == nil {
		t.Error("a file without the cpu line must be an error")
	}
}

const exposition = `# HELP cloud_ingest_accepted_total packets verified, persisted, and acknowledged
# TYPE cloud_ingest_accepted_total counter
cloud_ingest_accepted_total 1024
# TYPE cloud_ingest_batch_seconds histogram
cloud_ingest_batch_seconds_bucket{le="0.001"} 3
cloud_ingest_batch_seconds_bucket{le="+Inf"} 4
cloud_ingest_batch_seconds_sum 0.006
cloud_ingest_batch_seconds_count 4
# TYPE tsdb_points gauge
tsdb_points 1.5e+06
`

func TestParseMetricsAndDelta(t *testing.T) {
	before, err := parseMetrics([]byte(exposition))
	if err != nil {
		t.Fatal(err)
	}
	if before["cloud_ingest_accepted_total"] != 1024 || before["tsdb_points"] != 1.5e6 {
		t.Fatalf("parsed %v", before)
	}
	if _, ok := before[`cloud_ingest_batch_seconds_bucket{le="0.001"}`]; ok || len(before) != 4 {
		t.Fatalf("bucket series must be skipped, sum and count kept: %v", before)
	}
	after := metricSet{
		"cloud_ingest_accepted_total":      3072,
		"cloud_ingest_batch_seconds_sum":   0.018,
		"cloud_ingest_batch_seconds_count": 12,
		"tsdb_points":                      3.5e6,
		"registered_later_total":           7,
	}
	d := after.delta(before)
	if d["cloud_ingest_accepted_total"] != 2048 || d["registered_later_total"] != 7 {
		t.Fatalf("delta %v", d)
	}
	if got := d.histMean("cloud_ingest_batch_seconds"); math.Abs(got-0.0015) > 1e-12 {
		t.Fatalf("histogram mean over the delta %v, want 0.0015", got)
	}
	if got := d.histMean("never_observed_seconds"); got != 0 {
		t.Fatalf("mean of nothing %v, want 0", got)
	}
	sum := metricSet{"a": 1}
	sum.add(metricSet{"a": 2, "b": 3})
	if sum["a"] != 3 || sum["b"] != 3 {
		t.Fatalf("add %v", sum)
	}
	for _, bad := range []string{"no_value\n", "x not-a-number\n"} {
		if _, err := parseMetrics([]byte(bad)); err == nil {
			t.Errorf("parseMetrics(%q) accepted", bad)
		}
	}
}

// The trace's defining property: along one path the self times sum to
// the outermost span, whatever the inner passes measured.
func TestSelfTimesSumToOutermost(t *testing.T) {
	spans := []span{
		{Name: "send", ID: 0, Start: 0, End: 1000},
		{Name: "serve", Parent: "send", ID: 0, Start: 0, End: 700},
		{Name: "ingest", Parent: "serve", ID: 0, Start: 0, End: 650},
		{Name: "verify", Parent: "ingest", ID: 0, Start: 0, End: 300},
		{Name: "append", Parent: "ingest", ID: 0, Start: 0, End: 200},
		{Name: "send", ID: 1, Start: 2000, End: 2900},
		{Name: "serve", Parent: "send", ID: 1, Start: 0, End: 950}, // a noisy inner pass: self goes negative, the sum still holds
	}
	self := selfTotals(spans, nil)
	var sum time.Duration
	for _, d := range self {
		sum += d
	}
	if sum != 1900 {
		t.Fatalf("self times sum to %d, the outermost spans to 1900", sum)
	}
	if self["ingest"] != 150 || self["send"] != 300-50 || self["verify"] != 300 {
		t.Fatalf("self times %v", self)
	}

	// Children that run side by side block the parent for the slowest.
	fan := []span{
		{Name: "coord", ID: 0, Start: 0, End: 500},
		{Name: "replica[0]", Parent: "coord", ID: 0, Start: 10, End: 310},
		{Name: "replica[1]", Parent: "coord", ID: 0, Start: 10, End: 410},
	}
	if got := selfTotals(fan, map[string]bool{"coord": true})["coord"]; got != 100 {
		t.Fatalf("fan-out self time %d, want 500 minus the slowest replica's 400", got)
	}
}
