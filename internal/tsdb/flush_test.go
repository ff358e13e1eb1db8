package tsdb

import (
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"testing"
	"time"

	"centuryscale/internal/lpwan"
	"centuryscale/internal/obs"
)

// TestConcurrentFramesShareFlushes: frames from many goroutines, each
// spread over every shard, cost at most one flush — one fsync under
// SyncAlways — per frame, and usually fewer: a frame whose records a
// running flush already drained waits for it instead of leading its own.
func TestConcurrentFramesShareFlushes(t *testing.T) {
	dir := t.TempDir()
	db := mustOpen(t, Options{Dir: dir, Shards: 16, Sync: SyncAlways})
	const writers, framesEach, perFrame = 8, 25, 32
	var wg sync.WaitGroup
	for g := 0; g < writers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			pts := make([]Point, perFrame)
			for f := 0; f < framesEach; f++ {
				for i := range pts {
					dev := uint64(g*perFrame + i + 1) // a writer's devices are its own
					pts[i] = pt(dev, uint32(f+1), time.Duration(f+1)*time.Second)
				}
				lsn := db.AppendDeferred(pts)
				if err := db.Flush(lsn); err != nil {
					t.Error(err)
					return
				}
				if got := LSN(db.wal.flushed.Load()); got < lsn {
					t.Errorf("Flush(%d) returned with flushed at %d", lsn, got)
				}
			}
		}(g)
	}
	wg.Wait()
	const frames = writers * framesEach
	if n := db.wal.fsyncs.Load(); n == 0 || n > frames {
		t.Fatalf("%d fsyncs for %d frames over 16 shards, want at most one per frame", n, frames)
	}
	if n := db.GroupCommits(); n == 0 || n > frames {
		t.Fatalf("%d group commits for %d frames", n, frames)
	}
	db.Close()
	st, _ := replayCount(t, dir)
	if st.Records != frames*perFrame || st.Corruptions != 0 {
		t.Fatalf("replay = %+v, want %d records", st, frames*perFrame)
	}
}

// TestFlushMetrics drives the flush stage's instruments from an injected
// clock, so the exposition is exact. (That they add no allocation to the
// append path is TestAppendAllocBudget's business.)
func TestFlushMetrics(t *testing.T) {
	db := mustOpen(t, Options{Dir: t.TempDir(), Shards: 2, Sync: SyncAlways})
	var ticks atomic.Int64
	db.wal.clock = func() time.Duration { return time.Duration(ticks.Add(1)) * 250 * time.Millisecond }
	reg := obs.NewRegistry()
	db.RegisterMetrics(reg)
	sample := func(name string) string {
		t.Helper()
		for _, line := range strings.Split(string(reg.Exposition()), "\n") {
			if rest, ok := strings.CutPrefix(line, name+" "); ok {
				return rest
			}
		}
		t.Fatalf("%s not in exposition:\n%s", name, reg.Exposition())
		return ""
	}

	lsn := db.AppendDeferred([]Point{pt(1, 1, time.Minute), pt(2, 1, time.Minute), pt(3, 1, time.Minute)})
	// Device 1's lone point record (38), then devices 2 and 3, which
	// share the other shard, as one arrival run of two (17 + 2×21).
	if got := sample("tsdb_wal_unflushed_bytes"); got != "97" {
		t.Fatalf("unflushed bytes before the flush = %s, want a run of 2 and a point record = 97", got)
	}
	if err := db.Flush(lsn); err != nil {
		t.Fatal(err)
	}
	if err := db.Flush(lsn); err != nil { // already covered: no I/O, no observation
		t.Fatal(err)
	}
	fs := injectFaults(db)
	fs.fail("write", syscall.EIO, 1, 0)
	if err := db.Append(pt(1, 2, 2*time.Minute)); err == nil {
		t.Fatal("append over a failing write returned nil")
	}
	if err := db.Flush(db.LogEnd()); err != nil {
		t.Fatal(err)
	}
	for name, want := range map[string]string{
		"tsdb_wal_unflushed_bytes":      "0",
		"tsdb_wal_bytes_total":          "135", // the frame's 97, and the retried point's 38 once
		"tsdb_wal_flushes_total":        "2",
		"tsdb_wal_flush_failures_total": "1",
		"tsdb_wal_fsyncs_total":         "2",
		"tsdb_wal_flush_seconds_count":  "3",
		"tsdb_wal_flush_seconds_sum":    "0.75", // three flushes, one clock step each
	} {
		if got := sample(name); got != want {
			t.Errorf("%s = %s, want %s", name, got, want)
		}
	}
}

// TestLogOrderIsMemtableOrder is C2 at the engine: goroutines appending
// to the same devices at once leave each device's records in the log in
// the order the memtable holds them, so what History serves live is what
// replay rebuilds, reading for reading.
func TestLogOrderIsMemtableOrder(t *testing.T) {
	dir := t.TempDir()
	db := mustOpen(t, Options{Dir: dir, Shards: 2, Sync: SyncNever})
	const writers, rounds, devices = 4, 200, 3
	var wg sync.WaitGroup
	for g := 0; g < writers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			pts := make([]Point, devices)
			for r := 0; r < rounds; r++ {
				for d := range pts {
					pts[d] = pt(uint64(d+1), uint32(g*rounds+r+1), time.Duration(r+1)*time.Second)
				}
				if err := db.AppendBatch(pts); err != nil {
					t.Error(err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	live := make(map[uint64][]Point)
	for d := uint64(1); d <= devices; d++ {
		live[d] = db.History(lpwan.EUIFromUint64(d))
	}
	db.Close()
	_, re := replayCount(t, dir)
	for d, want := range live {
		got := re.History(lpwan.EUIFromUint64(d))
		if len(got) != writers*rounds || len(got) != len(want) {
			t.Fatalf("device %d: %d points live, %d replayed, want %d", d, len(want), len(got), writers*rounds)
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("device %d diverges at %d: replay has seq %d where live history had seq %d", d, i, got[i].Seq, want[i].Seq)
			}
		}
	}
}
