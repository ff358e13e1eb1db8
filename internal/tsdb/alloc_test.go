package tsdb

import (
	"testing"
	"time"

	"centuryscale/internal/lpwan"
	"centuryscale/internal/obs"
)

// TestAppendAllocBudget pins the write path's allocation budget: one
// durable append costs at most 1 allocation per call on average — the
// amortized growth of the in-memory series plus WAL framing through
// reused scratch buffers. This is the machine-independent form of
// BENCH_tsdb.json's AppendSerial baseline; the static counterpart is
// the //lint:hotpath budget=0 annotation on (DB).Append (always-class
// sites only — amortized growth is exempt there and measured here).
func TestAppendAllocBudget(t *testing.T) {
	db, err := Open(Options{Dir: t.TempDir(), Shards: 1, Sync: SyncNever})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	db.RegisterMetrics(obs.NewRegistry()) // the flush histogram must not cost the path an allocation
	dev := lpwan.EUIFromUint64(1)
	var i int
	got := testing.AllocsPerRun(5000, func() {
		i++
		if err := db.Append(Point{Device: dev, At: time.Duration(i), Seq: uint32(i), Value: 1}); err != nil {
			t.Fatal(err)
		}
	})
	if got > 1 {
		t.Errorf("Append allocates %.2f times per call, want <= 1", got)
	}
}

// TestRangeAllocBudget pins the read path's allocation budget: a range
// query over a resident series costs at most 2 allocations — the
// Iterator (or pooled-slice bookkeeping) plus at most one exact-size
// result buffer from rangeInto when the pooled buffer is too small.
// Matches BENCH_tsdb.json's RangeQuery/RangeSlice baselines.
func TestRangeAllocBudget(t *testing.T) {
	db, err := Open(Options{Shards: 4}) // memory-only: reads never touch the WAL
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	dev := lpwan.EUIFromUint64(7)
	const points = 10_000
	for i := 0; i < points; i++ {
		db.Load(Point{Device: dev, At: time.Duration(i) * time.Minute, Seq: uint32(i + 1), Value: float32(i)})
	}
	from := time.Duration(points/3) * time.Minute
	to := time.Duration(2*points/3) * time.Minute

	if got := testing.AllocsPerRun(100, func() {
		it := db.Range(dev, from, to)
		n := 0
		for it.Next() {
			n++
		}
		it.Close()
		if n != points/3 {
			t.Fatalf("range returned %d points", n)
		}
	}); got > 2 {
		t.Errorf("Range allocates %.2f times per call, want <= 2", got)
	}

	if got := testing.AllocsPerRun(100, func() {
		pts, release := db.RangeSlice(dev, from, to)
		if len(pts) != points/3 {
			t.Fatalf("range returned %d points", len(pts))
		}
		release()
	}); got > 2 {
		t.Errorf("RangeSlice allocates %.2f times per call, want <= 2", got)
	}
}
