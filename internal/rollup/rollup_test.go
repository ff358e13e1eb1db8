package rollup

import (
	"encoding/json"
	"reflect"
	"testing"
	"time"

	"centuryscale/internal/lpwan"
	"centuryscale/internal/rng"
	"centuryscale/internal/sim"
	"centuryscale/internal/tsdb"
)

func dev(n uint64) lpwan.EUI64 { return lpwan.EUIFromUint64(n) }

func pt(d lpwan.EUI64, at time.Duration, seq uint32, v float32) tsdb.Point {
	return tsdb.Point{Device: d, At: at, Seq: seq, Value: v}
}

func mustNew(t *testing.T, cfg Config) *Engine {
	t.Helper()
	e, err := New(cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	return e
}

func TestConfigValidation(t *testing.T) {
	if _, err := New(Config{Hourly: time.Hour, Daily: 90 * time.Minute}); err == nil {
		t.Fatal("daily not a multiple of hourly: want error")
	}
	if _, err := New(Config{Hourly: -time.Hour}); err == nil {
		t.Fatal("negative width: want error")
	}
	e := mustNew(t, Config{})
	if e.Config().Hourly != DefaultHourly || e.Config().Daily != DefaultDaily {
		t.Fatalf("defaults not applied: %+v", e.Config())
	}
}

func TestFoldBasicAggregates(t *testing.T) {
	e := mustNew(t, Config{})
	d := dev(1)
	pts := []tsdb.Point{
		pt(d, 10*time.Minute, 1, 2.0),
		pt(d, 20*time.Minute, 2, 8.0),
		pt(d, 50*time.Minute, 3, -1.0),
		pt(d, 70*time.Minute, 4, 5.0), // second hour
	}
	e.Advance(2 * time.Hour)
	n := e.Fold([]tsdb.DrainedSeries{{Device: d, Points: pts}})
	if n != 4 {
		t.Fatalf("folded %d, want 4", n)
	}
	hourly, daily := e.Series(d)
	if len(hourly) != 2 {
		t.Fatalf("hourly buckets = %d, want 2", len(hourly))
	}
	b := hourly[0]
	if b.Start != 0 || b.Count != 3 || b.Sum != 9.0 || b.Min != -1 || b.Max != 8 {
		t.Fatalf("bucket 0 = %+v", b)
	}
	if b.First != 10*time.Minute || b.Last != 50*time.Minute || b.MaxGap != 30*time.Minute {
		t.Fatalf("bucket 0 gap stats = %+v", b)
	}
	if b.MaxSeq != 3 {
		t.Fatalf("bucket 0 MaxSeq = %d", b.MaxSeq)
	}
	if hourly[1].Start != time.Hour || hourly[1].Count != 1 {
		t.Fatalf("bucket 1 = %+v", hourly[1])
	}
	if len(daily) != 0 {
		t.Fatalf("daily buckets before a full day sealed: %+v", daily)
	}
	if e.FoldedBefore() != 2*time.Hour {
		t.Fatalf("FoldedBefore = %v", e.FoldedBefore())
	}
}

// TestFoldAllocBudget pins the fold's allocations per drained batch, in
// steady state: the device has tiers already and each fold opens one new
// hourly bucket, whose append growth amortizes away over the run. What
// is left is sort.Slice's scaffolding (the boxed slice and its swapper),
// per device and independent of how many points the batch holds — 16 or
// 256 cost the same.
func TestFoldAllocBudget(t *testing.T) {
	const want = 3
	for _, n := range []int{16, 256} {
		e := mustNew(t, Config{})
		d := dev(1)
		pts := make([]tsdb.Point, n)
		drained := []tsdb.DrainedSeries{{Device: d, Points: pts}}
		hour, seq := time.Duration(0), uint32(0)
		got := testing.AllocsPerRun(1000, func() {
			for i := range pts {
				seq++
				pts[i] = pt(d, hour+time.Duration(i)*time.Hour/time.Duration(n), seq, float32(i))
			}
			hour += time.Hour
			e.Advance(hour)
			if folded := e.Fold(drained); folded != n {
				t.Fatalf("folded %d of %d points", folded, n)
			}
		})
		if got != want {
			t.Errorf("Fold allocates %.0f times per %d-point batch, want %d", got, n, want)
		}
	}
}

func TestAdvanceAlignsAndNeverRegresses(t *testing.T) {
	e := mustNew(t, Config{})
	if got := e.Advance(90 * time.Minute); got != time.Hour {
		t.Fatalf("Advance(90m) = %v, want 1h", got)
	}
	if got := e.Advance(30 * time.Minute); got != time.Hour {
		t.Fatalf("watermark regressed to %v", got)
	}
	if got := e.Advance(-time.Hour); got != time.Hour {
		t.Fatalf("negative advance moved watermark to %v", got)
	}
}

func TestDailyDerivation(t *testing.T) {
	e := mustNew(t, Config{})
	d := dev(7)
	// One point per hour for 26 hours.
	var pts []tsdb.Point
	for h := 0; h < 26; h++ {
		pts = append(pts, pt(d, time.Duration(h)*time.Hour+time.Minute, uint32(h+1), float32(h)))
	}
	e.Advance(26 * time.Hour)
	e.Fold([]tsdb.DrainedSeries{{Device: d, Points: pts}})
	hourly, daily := e.Series(d)
	if len(hourly) != 26 {
		t.Fatalf("hourly = %d", len(hourly))
	}
	if len(daily) != 1 {
		t.Fatalf("daily = %d, want 1 (only the first full day is sealed)", len(daily))
	}
	db := daily[0]
	if db.Start != 0 || db.Count != 24 {
		t.Fatalf("daily bucket = %+v", db)
	}
	if db.Sum != float64(0+23)*24/2 {
		t.Fatalf("daily Sum = %v", db.Sum)
	}
	if db.First != time.Minute || db.Last != 23*time.Hour+time.Minute {
		t.Fatalf("daily First/Last = %v/%v", db.First, db.Last)
	}
	if db.MaxGap != time.Hour {
		t.Fatalf("daily MaxGap = %v (cross-hourly gaps must merge)", db.MaxGap)
	}
	if db.MaxSeq != 24 {
		t.Fatalf("daily MaxSeq = %d", db.MaxSeq)
	}
	if e.DailyFoldedBefore() != sim.Day {
		t.Fatalf("DailyFoldedBefore = %v", e.DailyFoldedBefore())
	}
}

// Incremental folds (many small advances) must converge on exactly the
// state one big fold produces — this is what makes crash-replay-refold
// and checkpoint-cadence folding equivalent.
func TestIncrementalEqualsBatch(t *testing.T) {
	src := rng.New(42)
	var pts []tsdb.Point
	d := dev(3)
	at := time.Duration(0)
	for i := 0; i < 500; i++ {
		at += time.Duration(src.Intn(int(2*time.Hour))) + time.Second
		pts = append(pts, pt(d, at, uint32(i+1), float32(src.Float64())*100-50))
	}
	horizon := at + time.Hour

	batch := mustNew(t, Config{})
	batch.Advance(horizon)
	batch.Fold([]tsdb.DrainedSeries{{Device: d, Points: append([]tsdb.Point(nil), pts...)}})

	incr := mustNew(t, Config{})
	prev := time.Duration(0)
	for cut := 5 * time.Hour; ; cut += 5 * time.Hour {
		if cut > horizon {
			cut = horizon
		}
		incr.Advance(cut)
		wm := incr.FoldedBefore()
		var chunk []tsdb.Point
		for _, p := range pts {
			if p.At >= prev && p.At < wm {
				chunk = append(chunk, p)
			}
		}
		incr.Fold([]tsdb.DrainedSeries{{Device: d, Points: chunk}})
		prev = wm
		if cut == horizon {
			break
		}
	}

	if !reflect.DeepEqual(batch.Snapshot(), incr.Snapshot()) {
		t.Fatal("incremental folds diverged from one batch fold")
	}
	if incr.StaleDrops() != 0 {
		t.Fatalf("StaleDrops = %d", incr.StaleDrops())
	}
}

// Two engines fed the same points in different arrival orders must
// produce byte-identical snapshots: the fold's sort is the determinism
// guarantee checkpoint byte-stability rests on.
func TestFoldOrderIndependentAndByteDeterministic(t *testing.T) {
	src := rng.New(7)
	var pts []tsdb.Point
	for i := 0; i < 300; i++ {
		d := dev(uint64(src.Intn(5) + 1))
		at := time.Duration(src.Int63n(int64(3 * sim.Day)))
		pts = append(pts, pt(d, at, uint32(i+1), float32(src.Float64())))
	}
	shuffled := append([]tsdb.Point(nil), pts...)
	for i := len(shuffled) - 1; i > 0; i-- {
		j := src.Intn(i + 1)
		shuffled[i], shuffled[j] = shuffled[j], shuffled[i]
	}

	fold := func(in []tsdb.Point) EngineState {
		e := mustNew(t, Config{})
		e.Advance(4 * sim.Day)
		byDev := map[lpwan.EUI64][]tsdb.Point{}
		for _, p := range in {
			byDev[p.Device] = append(byDev[p.Device], p)
		}
		var ds []tsdb.DrainedSeries
		for d, ps := range byDev {
			ds = append(ds, tsdb.DrainedSeries{Device: d, Points: ps})
		}
		e.Fold(ds)
		return e.Snapshot()
	}

	a, b := fold(pts), fold(shuffled)
	ab, err := json.Marshal(a)
	if err != nil {
		t.Fatal(err)
	}
	bb, err := json.Marshal(b)
	if err != nil {
		t.Fatal(err)
	}
	if string(ab) != string(bb) {
		t.Fatal("snapshots differ across fold input orders")
	}
}

func TestSnapshotRestoreRoundTrip(t *testing.T) {
	e := mustNew(t, Config{})
	d1, d2 := dev(1), dev(2)
	e.Advance(30 * time.Hour)
	e.Fold([]tsdb.DrainedSeries{
		{Device: d1, Points: []tsdb.Point{pt(d1, time.Minute, 1, 1), pt(d1, 25*time.Hour, 2, 2)}},
		{Device: d2, Points: []tsdb.Point{pt(d2, 2*time.Hour, 9, 3)}},
	})
	st := e.Snapshot()

	r, err := Restore(e.Config(), st)
	if err != nil {
		t.Fatalf("Restore: %v", err)
	}
	if !reflect.DeepEqual(r.Snapshot(), st) {
		t.Fatal("restore round trip diverged")
	}
	if r.FoldedBefore() != 30*time.Hour || r.DailyFoldedBefore() != sim.Day {
		t.Fatalf("watermarks lost: %v / %v", r.FoldedBefore(), r.DailyFoldedBefore())
	}
	if r.MaxSeq(d1) != 2 || r.MaxSeq(d2) != 9 || r.MaxSeq(dev(3)) != 0 {
		t.Fatalf("MaxSeq after restore: %d %d %d", r.MaxSeq(d1), r.MaxSeq(d2), r.MaxSeq(dev(3)))
	}

	if _, err := Restore(Config{Hourly: 30 * time.Minute, Daily: sim.Day}, st); err == nil {
		t.Fatal("geometry change must refuse to restore")
	}
}

func TestStaleFoldRefused(t *testing.T) {
	e := mustNew(t, Config{})
	d := dev(1)
	e.Advance(2 * time.Hour)
	e.Fold([]tsdb.DrainedSeries{{Device: d, Points: []tsdb.Point{pt(d, 90*time.Minute, 1, 1)}}})
	// A point below the sealed hourly bucket arrives in a later fold:
	// must be dropped, not folded into (or before) the sealed bucket.
	e.Advance(3 * time.Hour)
	e.Fold([]tsdb.DrainedSeries{{Device: d, Points: []tsdb.Point{pt(d, 10*time.Minute, 2, 5)}}})
	if e.StaleDrops() != 1 {
		t.Fatalf("StaleDrops = %d, want 1", e.StaleDrops())
	}
	hourly, _ := e.Series(d)
	if len(hourly) != 1 || hourly[0].Count != 1 || hourly[0].MaxSeq != 1 {
		t.Fatalf("sealed bucket mutated: %+v", hourly)
	}
}

// Century horizon: daily bucketing at year 100 must not overflow or
// misalign (At values near 3.16e18 ns).
func TestCenturyAlignment(t *testing.T) {
	e := mustNew(t, Config{})
	d := dev(1)
	at := 100*sim.Year - time.Minute
	e.Advance(100 * sim.Year)
	e.Fold([]tsdb.DrainedSeries{{Device: d, Points: []tsdb.Point{pt(d, at, 1, 1)}}})
	hourly, daily := e.Series(d)
	if len(hourly) != 1 || hourly[0].Start != AlignDown(at, time.Hour) {
		t.Fatalf("hourly at century: %+v", hourly)
	}
	if len(daily) != 1 || daily[0].Start != AlignDown(at, sim.Day) {
		t.Fatalf("daily at century: %+v", daily)
	}
	if hb, db := e.Buckets(); hb != 1 || db != 1 {
		t.Fatalf("Buckets() = %d, %d", hb, db)
	}
}

// TestExportSinceIsTheDelta: folding in two steps and exporting from the
// first step's watermarks yields exactly the buckets the second step
// added — nothing the earlier export already carried, nothing missing —
// and the two exports appended device by device are the full Snapshot.
func TestExportSinceIsTheDelta(t *testing.T) {
	e := mustNew(t, Config{})
	d1, d2 := dev(1), dev(2)
	feed := func(from, to time.Duration) {
		e.Advance(to)
		var a, b []tsdb.Point
		for at := from; at < to; at += 40 * time.Minute {
			a = append(a, pt(d1, at, uint32(at/time.Minute)+1, 1))
			if at >= 50*time.Hour { // d2 joins late: absent from the first export
				b = append(b, pt(d2, at+time.Minute, uint32(at/time.Minute)+1, 2))
			}
		}
		e.Fold([]tsdb.DrainedSeries{{Device: d1, Points: a}, {Device: d2, Points: b}})
	}
	feed(0, 30*time.Hour)
	first := e.Snapshot()
	feed(30*time.Hour, 80*time.Hour)
	delta := e.ExportSince(first.FoldedBefore, first.DailyFoldedBefore)
	full := e.Snapshot()

	if delta.FoldedBefore != full.FoldedBefore || delta.DailyFoldedBefore != full.DailyFoldedBefore || delta.Config != full.Config {
		t.Fatalf("delta carries watermarks %v/%v, the engine is at %v/%v", delta.FoldedBefore, delta.DailyFoldedBefore, full.FoldedBefore, full.DailyFoldedBefore)
	}
	joined := map[lpwan.EUI64]*DeviceState{}
	for _, st := range []EngineState{first, delta} {
		for _, ds := range st.Devices {
			j := joined[ds.Device]
			if j == nil {
				j = &DeviceState{Device: ds.Device}
				joined[ds.Device] = j
			}
			j.Hourly = append(j.Hourly, ds.Hourly...)
			j.Daily = append(j.Daily, ds.Daily...)
		}
	}
	if len(joined) != len(full.Devices) {
		t.Fatalf("first+delta cover %d devices, the engine holds %d", len(joined), len(full.Devices))
	}
	for _, want := range full.Devices {
		if got := joined[want.Device]; !reflect.DeepEqual(*got, want) {
			t.Fatalf("device %v: first export + delta differs from the snapshot", want.Device)
		}
	}
	for _, ds := range delta.Devices {
		for _, b := range ds.Hourly {
			if b.Start < first.FoldedBefore {
				t.Fatalf("delta repeats hourly bucket at %v, below the first export's watermark %v", b.Start, first.FoldedBefore)
			}
		}
		for _, b := range ds.Daily {
			if b.Start < first.DailyFoldedBefore {
				t.Fatalf("delta repeats daily bucket at %v", b.Start)
			}
		}
	}
	// Nothing new since: an empty delta, not a list of empty devices.
	if again := e.ExportSince(full.FoldedBefore, full.DailyFoldedBefore); len(again.Devices) != 0 {
		t.Fatalf("export from the current watermarks names %d devices", len(again.Devices))
	}
}

// TestRestoreRefusesImpossibleTiers: exported state the engine could not
// have produced — a bucket off the grid, out of order, empty, or at or
// above its tier's watermark — is refused, because the read path
// binary-searches the tiers and would answer wrongly instead of failing.
func TestRestoreRefusesImpossibleTiers(t *testing.T) {
	e := mustNew(t, Config{})
	d := dev(1)
	e.Advance(60 * time.Hour)
	var ps []tsdb.Point
	for at := time.Duration(0); at < 60*time.Hour; at += time.Hour {
		ps = append(ps, pt(d, at, uint32(at/time.Hour)+1, 1))
	}
	e.Fold([]tsdb.DrainedSeries{{Device: d, Points: ps}})
	good := e.Snapshot()
	if _, err := Restore(e.Config(), good); err != nil {
		t.Fatalf("the engine's own export refused: %v", err)
	}
	for name, damage := range map[string]func(st *EngineState){
		"hourly off the grid":          func(st *EngineState) { st.Devices[0].Hourly[3].Start += time.Minute },
		"hourly out of order":          func(st *EngineState) { h := st.Devices[0].Hourly; h[3], h[4] = h[4], h[3] },
		"hourly repeated":              func(st *EngineState) { h := st.Devices[0].Hourly; h[4] = h[3] },
		"hourly empty":                 func(st *EngineState) { st.Devices[0].Hourly[0].Count = 0 },
		"hourly negative start":        func(st *EngineState) { st.Devices[0].Hourly[0].Start = -time.Hour },
		"hourly at the watermark":      func(st *EngineState) { st.FoldedBefore = st.Devices[0].Hourly[59].Start },
		"daily above its watermark":    func(st *EngineState) { st.DailyFoldedBefore = 0 },
		"daily off the grid":           func(st *EngineState) { st.Devices[0].Daily[0].Start = time.Hour },
		"watermark below every bucket": func(st *EngineState) { st.FoldedBefore, st.DailyFoldedBefore = 0, 0 },
	} {
		st := e.Snapshot()
		damage(&st)
		if _, err := Restore(e.Config(), st); err == nil {
			t.Errorf("%s: restored", name)
		}
	}
}
