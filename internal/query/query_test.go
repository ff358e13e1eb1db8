package query

import (
	"errors"
	"fmt"
	"sort"
	"testing"
	"time"

	"centuryscale/internal/lpwan"
	"centuryscale/internal/rng"
	"centuryscale/internal/rollup"
	"centuryscale/internal/sim"
	"centuryscale/internal/tsdb"
)

// naiveAgg is the oracle: one window's aggregate computed directly from
// At-sorted raw points, written independently of the engine's
// accumulator so the property test compares two implementations.
func naiveAgg(sorted []tsdb.Point, ws, we time.Duration) WindowAgg {
	w := WindowAgg{Start: ws}
	prev := ws
	for _, p := range sorted {
		if p.At < ws || p.At >= we {
			continue
		}
		if w.Count == 0 {
			w.Min, w.Max = p.Value, p.Value
		} else {
			if p.Value < w.Min {
				w.Min = p.Value
			}
			if p.Value > w.Max {
				w.Max = p.Value
			}
		}
		if g := p.At - prev; g > w.MaxGap {
			w.MaxGap = g
		}
		prev = p.At
		w.Count++
		w.Sum += float64(p.Value)
	}
	if g := we - prev; g > w.MaxGap {
		w.MaxGap = g
	}
	return w
}

func naiveUptime(pts []tsdb.Point, horizon time.Duration) float64 {
	total := int64(horizon / sim.Week)
	if total <= 0 {
		return 0
	}
	weeks := make(map[int64]bool)
	for _, p := range pts {
		if w := int64(p.At / sim.Week); w < total {
			weeks[w] = true
		}
	}
	return float64(len(weeks)) / float64(total)
}

func naiveGap(sorted []tsdb.Point, horizon time.Duration) time.Duration {
	var gap time.Duration
	prev := time.Duration(0)
	for _, p := range sorted {
		if p.At >= horizon {
			break
		}
		if g := p.At - prev; g > gap {
			gap = g
		}
		prev = p.At
	}
	if g := horizon - prev; g > gap {
		gap = g
	}
	return gap
}

func sortPts(pts []tsdb.Point) {
	sort.Slice(pts, func(i, j int) bool { return pts[i].At < pts[j].At })
}

func memDB(t testing.TB) *tsdb.DB {
	t.Helper()
	db, err := tsdb.Open(tsdb.Options{})
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	return db
}

func TestWindowsBadArgs(t *testing.T) {
	q := &Engine{Src: dbSource{db: memDB(t)}}
	dev := lpwan.EUIFromUint64(1)
	for _, c := range []struct{ from, to, step time.Duration }{
		{0, time.Hour, 0},
		{0, time.Hour, -time.Minute},
		{time.Hour, time.Hour, time.Minute},
		{2 * time.Hour, time.Hour, time.Minute},
		{-time.Hour, time.Hour, time.Minute},
	} {
		if _, err := q.Windows(dev, c.from, c.to, c.step); !errors.Is(err, ErrBadWindow) {
			t.Fatalf("Windows(%v,%v,%v): err = %v, want ErrBadWindow", c.from, c.to, c.step, err)
		}
	}
}

func TestWindowsAlignmentBelowWatermark(t *testing.T) {
	db := memDB(t)
	dev := lpwan.EUIFromUint64(7)
	db.Load(tsdb.Point{Device: dev, At: 10 * time.Minute, Seq: 1, Value: 1})
	eng, err := rollup.New(rollup.Config{})
	if err != nil {
		t.Fatal(err)
	}
	wm := eng.Advance(2 * time.Hour)
	eng.Fold(db.DrainBelow(wm))
	q := &Engine{Src: dbSource{db: db, rollups: eng}}

	if _, err := q.Windows(dev, 30*time.Minute, 4*time.Hour, time.Hour); err == nil {
		t.Fatal("unaligned from below watermark accepted")
	}
	if _, err := q.Windows(dev, 0, 4*time.Hour, 90*time.Minute); err == nil {
		t.Fatal("unaligned step below watermark accepted")
	}
	// At or above the watermark the grid is unconstrained.
	it, err := q.Windows(dev, 2*time.Hour+30*time.Minute, 4*time.Hour, 17*time.Minute)
	if err != nil {
		t.Fatalf("aligned-above query refused: %v", err)
	}
	it.Close()
}

func TestWindowsRawOnly(t *testing.T) {
	db := memDB(t)
	dev := lpwan.EUIFromUint64(3)
	pts := []tsdb.Point{
		{Device: dev, At: 5 * time.Minute, Seq: 1, Value: 4},
		{Device: dev, At: 50 * time.Minute, Seq: 2, Value: -2},
		{Device: dev, At: 3*time.Hour + time.Minute, Seq: 3, Value: 10},
	}
	// Load out of order: the iterator must sort.
	db.Load(pts[2])
	db.Load(pts[0])
	db.Load(pts[1])
	q := &Engine{Src: dbSource{db: db}}

	it, err := q.Windows(dev, 0, 4*time.Hour, time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	defer it.Close()
	var got []WindowAgg
	for it.Next() {
		got = append(got, it.Window())
	}
	sortPts(pts)
	for i, w := range got {
		ws := time.Duration(i) * time.Hour
		if want := naiveAgg(pts, ws, ws+time.Hour); w != want {
			t.Fatalf("window %d: got %+v want %+v", i, w, want)
		}
	}
	if len(got) != 4 {
		t.Fatalf("got %d windows, want 4", len(got))
	}
	// Empty windows carry the full step as MaxGap.
	if got[1].Count != 0 || got[1].MaxGap != time.Hour {
		t.Fatalf("empty window: %+v", got[1])
	}
	if tiers := it.Tiers(); tiers.Raw != 3 || tiers.Daily != 0 || tiers.Hourly != 0 {
		t.Fatalf("tiers = %+v, want raw-only", tiers)
	}
}

// TestWindowsTierStitching pins the tier-selection rule on a hand-built
// series: 30-minute cadence over 3 days, folded through 49h, so a
// [0,72h) daily-step query must consume 2 daily buckets, 1 hourly edge
// bucket, and the raw tail.
func TestWindowsTierStitching(t *testing.T) {
	db := memDB(t)
	dev := lpwan.EUIFromUint64(0xAB)
	var pts []tsdb.Point
	seq := uint32(0)
	for at := time.Duration(0); at < 72*time.Hour; at += 30 * time.Minute {
		seq++
		pts = append(pts, tsdb.Point{Device: dev, At: at, Seq: seq, Value: float32(seq % 13)})
	}
	for _, p := range pts {
		db.Load(p)
	}
	eng, err := rollup.New(rollup.Config{})
	if err != nil {
		t.Fatal(err)
	}
	wm := eng.Advance(49 * time.Hour)
	if wm != 49*time.Hour {
		t.Fatalf("watermark = %v", wm)
	}
	eng.Fold(db.DrainBelow(wm))
	q := &Engine{Src: dbSource{db: db, rollups: eng}}

	it, err := q.Windows(dev, 0, 72*time.Hour, 24*time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	defer it.Close()
	i := 0
	for it.Next() {
		ws := time.Duration(i) * 24 * time.Hour
		if got, want := it.Window(), naiveAgg(pts, ws, ws+24*time.Hour); got != want {
			t.Fatalf("window %d: got %+v want %+v", i, got, want)
		}
		i++
	}
	if i != 3 {
		t.Fatalf("got %d windows, want 3", i)
	}
	tiers := it.Tiers()
	if tiers.Daily != 2 || tiers.Hourly != 1 {
		t.Fatalf("tiers = %+v, want 2 daily + 1 hourly", tiers)
	}
	// Raw tail is [49h, 72h): 46 points at 30-minute cadence.
	if tiers.Raw != 46 {
		t.Fatalf("raw hits = %d, want 46", tiers.Raw)
	}
}

// TestWindowsEmptyBuckets crosses a multi-day silence: gap statistics
// must stitch across absent buckets and window seams.
func TestWindowsEmptyBuckets(t *testing.T) {
	db := memDB(t)
	dev := lpwan.EUIFromUint64(0xCD)
	pts := []tsdb.Point{
		{Device: dev, At: 10 * time.Minute, Seq: 1, Value: 1},
		{Device: dev, At: 30 * time.Hour, Seq: 2, Value: 2},
		{Device: dev, At: 31 * time.Hour, Seq: 3, Value: 3},
	}
	for _, p := range pts {
		db.Load(p)
	}
	eng, err := rollup.New(rollup.Config{})
	if err != nil {
		t.Fatal(err)
	}
	eng.Fold(db.DrainBelow(eng.Advance(48 * time.Hour)))
	q := &Engine{Src: dbSource{db: db, rollups: eng}}

	for _, step := range []time.Duration{48 * time.Hour, 24 * time.Hour, 6 * time.Hour} {
		it, err := q.Windows(dev, 0, 48*time.Hour, step)
		if err != nil {
			t.Fatal(err)
		}
		i := 0
		for it.Next() {
			ws := time.Duration(i) * step
			if got, want := it.Window(), naiveAgg(pts, ws, ws+step); got != want {
				t.Fatalf("step %v window %d: got %+v want %+v", step, i, got, want)
			}
			i++
		}
		it.Close()
	}
}

// TestRollupVsNaiveProperty is the satellite's core: seeded random
// workloads where every windowed aggregate computed from rollup tiers
// equals the same aggregate computed from the raw points they replaced
// — including gap statistics across bucket boundaries and empty
// buckets. Values are small integers so float64 sums are exact in any
// association; equality is therefore ==, not approximate.
func TestRollupVsNaiveProperty(t *testing.T) {
	for seed := uint64(1); seed <= 5; seed++ {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			src := rng.New(0xC0DE0000 + seed)
			devs := []lpwan.EUI64{
				lpwan.EUIFromUint64(0x100 + seed),
				lpwan.EUIFromUint64(0x200 + seed),
				lpwan.EUIFromUint64(0x300 + seed),
			}
			horizon := 45 * sim.Day
			perDev := make(map[lpwan.EUI64][]tsdb.Point)
			db := memDB(t)
			for _, d := range devs {
				at := time.Duration(src.Intn(int(2 * time.Hour)))
				seq := uint32(0)
				for at < horizon {
					seq++
					p := tsdb.Point{
						Device: d, At: at, Seq: seq,
						Sensor: uint8(src.Intn(3)),
						Value:  float32(src.Intn(2001) - 1000),
					}
					perDev[d] = append(perDev[d], p)
					db.Load(p)
					// Mostly minutes between arrivals; occasionally days of
					// silence, so empty hourly AND daily buckets occur.
					if src.Intn(10) == 0 {
						at += time.Duration(src.Int63n(int64(3*sim.Day))) + time.Minute
					} else {
						at += time.Duration(src.Int63n(int64(2*time.Hour))) + time.Second
					}
				}
			}

			eng, err := rollup.New(rollup.Config{})
			if err != nil {
				t.Fatal(err)
			}
			wm := eng.Advance(time.Duration(src.Int63n(int64(horizon))))
			eng.Fold(db.DrainBelow(wm))
			if eng.StaleDrops() != 0 {
				t.Fatalf("fold dropped %d points as stale", eng.StaleDrops())
			}
			q := &Engine{Src: dbSource{db: db, rollups: eng, devs: devs}}

			steps := []time.Duration{time.Hour, 2 * time.Hour, 6 * time.Hour, sim.Day, sim.Week}
			for trial := 0; trial < 40; trial++ {
				d := devs[src.Intn(len(devs))]
				step := steps[src.Intn(len(steps))]
				from := rollup.AlignDown(time.Duration(src.Int63n(int64(horizon))), time.Hour)
				n := 1 + src.Intn(20)
				to := from + time.Duration(n)*step
				it, err := q.Windows(d, from, to, step)
				if err != nil {
					t.Fatalf("Windows(%v, %v..%v/%v): %v", d, from, to, step, err)
				}
				i := 0
				for it.Next() {
					ws := from + time.Duration(i)*step
					got, want := it.Window(), naiveAgg(perDev[d], ws, ws+step)
					if got != want {
						t.Fatalf("seed %d trial %d dev %v window [%v,%v): got %+v want %+v (watermark %v)",
							seed, trial, d, ws, ws+step, got, want, wm)
					}
					i++
				}
				it.Close()
				if i != n {
					t.Fatalf("got %d windows, want %d", i, n)
				}
			}

			for _, d := range devs {
				if got, want := q.WeeklyUptime(d, horizon), naiveUptime(perDev[d], horizon); got != want {
					t.Fatalf("WeeklyUptime(%v) = %v, want %v", d, got, want)
				}
				if got, want := q.LongestGap(d, horizon), naiveGap(perDev[d], horizon); got != want {
					t.Fatalf("LongestGap(%v) = %v, want %v", d, got, want)
				}
			}

			want := make([]DeviceGap, 0, len(devs))
			for _, d := range devs {
				want = append(want, DeviceGap{Device: d, Gap: naiveGap(perDev[d], horizon)})
			}
			sort.Slice(want, func(i, j int) bool {
				if want[i].Gap != want[j].Gap {
					return want[i].Gap > want[j].Gap
				}
				return want[i].Device.Uint64() < want[j].Device.Uint64()
			})
			got := q.TopGaps(2, horizon)
			if len(got) != 2 || got[0] != want[0] || got[1] != want[1] {
				t.Fatalf("TopGaps = %+v, want %+v", got, want[:2])
			}

			// Horizons drawn on the hourly grid in (0, 45 d], so most
			// fall below the fold watermark: no span past the horizon
			// may count inside it (F18).
			for trial := 0; trial < 40; trial++ {
				h := time.Duration(1+src.Intn(int(horizon/time.Hour))) * time.Hour
				want := make([]DeviceGap, 0, len(devs))
				for _, d := range devs {
					g := naiveGap(perDev[d], h)
					if got := q.LongestGap(d, h); got != g {
						t.Fatalf("seed %d trial %d: LongestGap(%v, %v) = %v, want %v (watermark %v)", seed, trial, d, h, got, g, wm)
					}
					if got, want := q.WeeklyUptime(d, h), naiveUptime(perDev[d], h); got != want {
						t.Fatalf("seed %d trial %d: WeeklyUptime(%v, %v) = %v, want %v (watermark %v)", seed, trial, d, h, got, want, wm)
					}
					want = append(want, DeviceGap{Device: d, Gap: g})
				}
				sort.Slice(want, func(i, j int) bool {
					if want[i].Gap != want[j].Gap {
						return want[i].Gap > want[j].Gap
					}
					return want[i].Device.Uint64() < want[j].Device.Uint64()
				})
				if got := q.TopGaps(2, h); len(got) != 2 || got[0] != want[0] || got[1] != want[1] {
					t.Fatalf("seed %d trial %d: TopGaps(2, %v) = %+v, want %+v (watermark %v)", seed, trial, h, got, want[:2], wm)
				}
			}
		})
	}
}

// TestGapHorizonBelowWatermark is F18's reproduction: hourly readings
// over days 0–10 and 15–20, all folded. A gap query with a three-day
// horizon must not see the silence of days 10–15, which lies after it
// (the walk used to read 121 h where the truth is 1 h); and a horizon
// off the hourly grid below the watermark is answered at the grid line
// below it, the finest history the buckets keep.
func TestGapHorizonBelowWatermark(t *testing.T) {
	db := memDB(t)
	dev := lpwan.EUIFromUint64(0xF18)
	seq := uint32(0)
	for _, days := range [][2]int{{0, 10}, {15, 20}} {
		for at := time.Duration(days[0]) * sim.Day; at < time.Duration(days[1])*sim.Day; at += time.Hour {
			seq++
			db.Load(tsdb.Point{Device: dev, At: at, Seq: seq, Value: 1})
		}
	}
	eng, err := rollup.New(rollup.Config{})
	if err != nil {
		t.Fatal(err)
	}
	eng.Fold(db.DrainBelow(eng.Advance(21 * sim.Day)))
	q := &Engine{Src: dbSource{db: db, rollups: eng, devs: []lpwan.EUI64{dev}}}
	for _, tc := range []struct{ horizon, want time.Duration }{
		{3 * sim.Day, time.Hour},
		{10*sim.Day + 30*time.Minute, time.Hour}, // off the grid: read at 10 d (the raw truth is 1 h 30 m)
		{12 * sim.Day, 2*sim.Day + time.Hour},    // into the silence
		{21 * sim.Day, 5*sim.Day + time.Hour},    // across it
	} {
		if got := q.LongestGap(dev, tc.horizon); got != tc.want {
			t.Errorf("LongestGap(%v) = %v, want %v", tc.horizon, got, tc.want)
		}
	}
	if got := q.TopGaps(1, 3*sim.Day); len(got) != 1 || got[0].Gap != time.Hour {
		t.Errorf("TopGaps(1, 3 d) = %+v, want a 1 h gap", got)
	}
}

func TestWeeklyUptimeAcrossTiers(t *testing.T) {
	db := memDB(t)
	dev := lpwan.EUIFromUint64(0xEF)
	// Arrivals in weeks 0 and 2 of a 3-week horizon; week 0 ends up
	// entirely in sealed buckets, week 2 stays raw.
	db.Load(tsdb.Point{Device: dev, At: 3 * sim.Day, Seq: 1, Value: 1})
	db.Load(tsdb.Point{Device: dev, At: 15 * sim.Day, Seq: 2, Value: 2})
	eng, err := rollup.New(rollup.Config{})
	if err != nil {
		t.Fatal(err)
	}
	eng.Fold(db.DrainBelow(eng.Advance(10 * sim.Day)))
	q := &Engine{Src: dbSource{db: db, rollups: eng}}
	if got := q.WeeklyUptime(dev, 3*sim.Week); got != 2.0/3.0 {
		t.Fatalf("WeeklyUptime = %v, want 2/3", got)
	}
}

// TestTopGapsFoldedAwayDevice: a device whose every point has been
// folded (and drained) must still rank, its gap read from the tiers
// alone.
func TestTopGapsFoldedAwayDevice(t *testing.T) {
	db := memDB(t)
	cold := lpwan.EUIFromUint64(0x10)
	warm := lpwan.EUIFromUint64(0x20)
	db.Load(tsdb.Point{Device: cold, At: time.Hour, Seq: 1, Value: 1})
	db.Load(tsdb.Point{Device: warm, At: time.Hour, Seq: 1, Value: 1})
	db.Load(tsdb.Point{Device: warm, At: 9 * sim.Day, Seq: 2, Value: 2})
	eng, err := rollup.New(rollup.Config{})
	if err != nil {
		t.Fatal(err)
	}
	eng.Fold(db.DrainBelow(eng.Advance(2 * sim.Day)))
	q := &Engine{Src: dbSource{db: db, rollups: eng, devs: []lpwan.EUI64{cold, warm}}}

	got := q.TopGaps(10, 10*sim.Day)
	if len(got) != 2 {
		t.Fatalf("TopGaps returned %d devices, want 2", len(got))
	}
	// cold's gap: from its only arrival at 1h to the 10-day horizon.
	if got[0].Device != cold || got[0].Gap != 10*sim.Day-time.Hour {
		t.Fatalf("top gap = %+v", got[0])
	}
	if got[1].Device != warm || got[1].Gap != 9*sim.Day-time.Hour {
		t.Fatalf("second gap = %+v", got[1])
	}
}
