package tsdb

import (
	"sync"
	"time"

	"centuryscale/internal/lpwan"
)

// shard is one partition: an in-memory per-device series map. Each shard
// has its own mutex, so ingest for devices hashing to different shards
// contends only for the memcpy into the shared log buffer.
type shard struct {
	mu      sync.Mutex
	points  map[lpwan.EUI64][]Point
	wal     *wal   // the DB's one log; nil in memory-only mode
	scratch []byte // record frames being encoded, reused under mu
}

func newShard(w *wal) *shard {
	return &shard{points: make(map[lpwan.EUI64][]Point), wal: w}
}

// append logs and stores ps and returns the LSN a flush must pass before
// any of them is acknowledged. Log-buffer append and memtable insert
// share the critical section, so log order and memtable order agree per
// device: what /history serves live is what replay rebuilds. The records
// are encoded before the log's own mutex is taken, which is then held
// for one memcpy.
func (sh *shard) append(ps []Point) (lsn LSN) {
	sh.mu.Lock()
	if sh.wal != nil {
		sh.scratch = sh.scratch[:0]
		for _, p := range ps {
			sh.scratch = AppendRecord(sh.scratch, p)
		}
		lsn = sh.wal.append(sh.scratch)
	}
	for _, p := range ps {
		sh.points[p.Device] = append(sh.points[p.Device], p)
	}
	sh.mu.Unlock()
	return lsn
}

// load inserts without touching the WAL: snapshot restore and WAL
// replay, whose records are already durable elsewhere.
func (sh *shard) load(p Point) {
	sh.mu.Lock()
	sh.points[p.Device] = append(sh.points[p.Device], p)
	sh.mu.Unlock()
}

// reset drops the in-memory state (the WAL is untouched).
func (sh *shard) reset() {
	sh.mu.Lock()
	sh.points = make(map[lpwan.EUI64][]Point)
	sh.mu.Unlock()
}

// history returns a copy of one device's points in arrival order.
func (sh *shard) history(dev lpwan.EUI64) []Point {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	return append([]Point(nil), sh.points[dev]...)
}

// rangeInto appends the device's points with At in [from, to) to buf,
// growing it exactly once if needed. Points are kept in arrival order,
// which is not guaranteed to be sorted by At across restarts, so this
// is a filter, not a binary search. The count pass costs one extra walk
// of a series already resident under the lock; it replaces the old
// rangeCopy's geometric append growth (up to 2x the result size in
// transient garbage per query, ~355 KB/op in BenchmarkTSDBRangeQuery)
// with a single exact-size allocation — or none, when a pooled buf
// already has the capacity.
//
// Allocations: 0 into a buffer that fits, else 1 (TestRangeAllocBudget).
func (sh *shard) rangeInto(dev lpwan.EUI64, from, to time.Duration, buf []Point) []Point {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	ps := sh.points[dev]
	n := 0
	for _, p := range ps {
		if p.At >= from && p.At < to {
			n++
		}
	}
	if cap(buf) < n {
		buf = make([]Point, 0, n)
	}
	buf = buf[:0]
	for _, p := range ps {
		if p.At >= from && p.At < to {
			buf = append(buf, p)
		}
	}
	return buf
}

// times copies just the arrival times of every series in the shard, one
// slice per device in arrival order. Gap analysis needs only the 8-byte
// times; copying full Points would move ~5x the bytes under the lock.
func (sh *shard) times() [][]time.Duration {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	out := make([][]time.Duration, 0, len(sh.points))
	for _, ps := range sh.points {
		ts := make([]time.Duration, len(ps))
		for i, p := range ps {
			ts[i] = p.At
		}
		out = append(out, ts)
	}
	return out
}

// devices returns the shard's device set (unsorted).
func (sh *shard) devices() []lpwan.EUI64 {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	out := make([]lpwan.EUI64, 0, len(sh.points))
	for d := range sh.points {
		out = append(out, d)
	}
	return out
}

// snapshot copies the shard's whole series map. Called per shard by the
// snapshot writer so that encoding (the expensive part) happens with no
// lock held and ingest stalls only for this one shard's memcpy.
func (sh *shard) snapshot() map[lpwan.EUI64][]Point {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	out := make(map[lpwan.EUI64][]Point, len(sh.points))
	for d, ps := range sh.points {
		out[d] = append([]Point(nil), ps...)
	}
	return out
}
