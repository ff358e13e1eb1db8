package tsdb

import (
	"testing"
	"time"

	"centuryscale/internal/lpwan"
	"centuryscale/internal/obs"
)

// TestAppendAllocBudget pins the write path's allocation budget on a
// WAL-backed engine: a durable Append and a durable AppendBatch of a
// 256-point frame each cost 0 allocations per call. Records are encoded
// into the shard's reused scratch and copied into the log's double
// buffer; the memtable's append growth is geometric, so over the run it
// amortizes below one allocation per call. Before F9 every record cost
// one heap object, the payload array escaping through crc32.Checksum.
func TestAppendAllocBudget(t *testing.T) {
	db, err := Open(Options{Dir: t.TempDir(), Shards: 4, Sync: SyncNever})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	db.RegisterMetrics(obs.NewRegistry()) // the flush histogram must not cost the path an allocation
	const devices, frame = 8, 256
	seq := uint32(0)
	point := func(i int) Point {
		seq++
		return Point{Device: lpwan.EUIFromUint64(uint64(i%devices + 1)), At: time.Duration(seq), Seq: seq, Value: 1}
	}
	if got := testing.AllocsPerRun(5000, func() {
		if err := db.Append(point(0)); err != nil {
			t.Fatal(err)
		}
	}); got != 0 {
		t.Errorf("Append allocates %.0f times per call, want 0", got)
	}

	pts := make([]Point, frame)
	if got := testing.AllocsPerRun(1000, func() {
		for i := range pts {
			pts[i] = point(i)
		}
		if err := db.AppendBatch(pts); err != nil {
			t.Fatal(err)
		}
	}); got != 0 {
		t.Errorf("AppendBatch allocates %.0f times per %d-point frame, want 0", got, frame)
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
// budget. rangeInto itself, with the pool out of the picture, costs 0
// into a buffer that fits and 1 into one that does not.
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

	sh := db.shardFor(dev)
	for _, c := range []struct {
		buf  []Point
		want float64
	}{
		{make([]Point, 0, points), 0},
		{nil, 1},
	} {
		if got := testing.AllocsPerRun(100, func() { sh.rangeInto(dev, from, to, c.buf) }); got != c.want {
			t.Errorf("rangeInto into a buffer of capacity %d allocates %.0f times, want %.0f", cap(c.buf), got, c.want)
		}
	}

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
