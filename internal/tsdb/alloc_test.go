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

// TestRangeAllocBudget pins the read path's allocation budget, one call
// at a time and separately for the two paths a call can take. Pool hit —
// the steady state: at most 2 allocations, the Iterator (or RangeSlice's
// release closure) plus nothing else, the result landing in the recycled
// buffer. Pool miss — first use, after a GC, or whenever the race
// detector makes sync.Pool drop a Put (it drops one in four, which is why
// the old averaged budget of 2 read 3 in one -race run in six): 3 more,
// the pool's New (a slice header and its 512-point array) and the one
// exact-size result buffer from rangeInto. Measured over 2000 calls:
// without -race every call costs 2; with it 75% cost 2, 24% cost 5, and
// 1% cost 7 or more — the runtime's own allocations (a GC cycle rebuilds
// the pool's per-P arrays) landing in whichever call they interrupt. So:
// nearly every call must fit the miss budget, and nearly every call — or
// under -race, where hits cannot be forced, at least half — the hit
// budget. Matches BENCH_tsdb.json's RangeQuery/RangeSlice baselines.
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

	const (
		calls      = 200
		hitBudget  = 2
		missBudget = hitBudget + 3
		stray      = calls / 20 // calls the runtime may charge its own allocations to
	)
	budget := func(name string, call func()) {
		t.Helper()
		hits, over := 0, 0
		for i := 0; i < calls; i++ {
			// AllocsPerRun(1, …) runs call twice and counts the second: the
			// first leaves its buffer in the pool for it, if the pool keeps it.
			switch got := testing.AllocsPerRun(1, call); {
			case got <= hitBudget:
				hits++
			case got > missBudget:
				over++
			}
		}
		wantHits := calls - stray
		if raceEnabled {
			wantHits = calls / 2 // expected 3 in 4; half is 8 sigma below
		}
		if hits < wantHits {
			t.Errorf("%s: %d of %d calls stayed within the pool-hit budget of %d allocations, want >= %d", name, hits, calls, hitBudget, wantHits)
		}
		if over > stray {
			t.Errorf("%s: %d of %d calls exceeded the pool-miss budget of %d allocations, want <= %d", name, over, calls, missBudget, stray)
		}
	}
	budget("Range", func() {
		it := db.Range(dev, from, to)
		n := 0
		for it.Next() {
			n++
		}
		it.Close()
		if n != points/3 {
			t.Fatalf("range returned %d points", n)
		}
	})
	budget("RangeSlice", func() {
		pts, release := db.RangeSlice(dev, from, to)
		if len(pts) != points/3 {
			t.Fatalf("range returned %d points", len(pts))
		}
		release()
	})
}
