package tsdb

import (
	"sort"
	"time"

	"centuryscale/internal/lpwan"
)

// DrainedSeries is one device's points removed by DrainBelow, in the
// device's arrival order.
type DrainedSeries struct {
	Device lpwan.EUI64
	Points []Point
}

// DrainBelow removes every stored point with At < cutoff from the
// in-memory series and returns them grouped by device, devices sorted
// by address. This is the hand-off from raw retention to the rollup
// tier: the caller summarizes the returned points into aggregate
// buckets and persists those through the next checkpoint, after which
// the raw copies exist nowhere — true tiered retention, not a cache.
//
// The WAL is deliberately untouched: records below the cutoff stay in
// their segments until the checkpoint that persists the buckets
// truncates them. A crash between drain and checkpoint therefore
// replays the drained points and the next fold re-summarizes them —
// the fold's deterministic ordering makes that re-fold byte-identical.
//
// Only one shard is paused at a time.
func (db *DB) DrainBelow(cutoff time.Duration) []DrainedSeries {
	byDev := make(map[lpwan.EUI64][]Point)
	for _, sh := range db.shards {
		sh.drainBelow(cutoff, byDev)
	}
	out := make([]DrainedSeries, 0, len(byDev))
	for dev, pts := range byDev {
		out = append(out, DrainedSeries{Device: dev, Points: pts})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Device.Uint64() < out[j].Device.Uint64() })
	return out
}

// drainBelow moves this shard's points with At < cutoff into byDev.
// Drained points are copied out before the in-place rewrite of the kept
// run reuses the backing array.
func (sh *shard) drainBelow(cutoff time.Duration, byDev map[lpwan.EUI64][]Point) {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	for dev, ps := range sh.points {
		n := 0
		for _, p := range ps {
			if p.At < cutoff {
				n++
			}
		}
		if n == 0 {
			continue
		}
		drained := make([]Point, 0, n)
		kept := ps[:0]
		for _, p := range ps {
			if p.At < cutoff {
				drained = append(drained, p)
			} else {
				kept = append(kept, p)
			}
		}
		byDev[dev] = append(byDev[dev], drained...)
		if len(kept) == 0 {
			delete(sh.points, dev)
			continue
		}
		// Re-slice into a fresh array when a lot drained, so the old
		// backing array can be collected on a decades-long run.
		if len(kept) < len(ps)/2 {
			fresh := make([]Point, len(kept))
			copy(fresh, kept)
			sh.points[dev] = fresh
		} else {
			sh.points[dev] = kept
		}
	}
}
