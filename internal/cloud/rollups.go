package cloud

import (
	"errors"
	"fmt"
	"time"

	"centuryscale/internal/lpwan"
	"centuryscale/internal/query"
	"centuryscale/internal/rollup"
	"centuryscale/internal/tsdb"
)

// Rollup integration: the endpoint's side of the tiered read path.
//
// The invariant everything below maintains is a clean partition of the
// acknowledged history at the fold watermark: every point with arrival
// time below rollup.Engine.FoldedBefore is summarized in bucket state
// exactly once (and its raw copy may be gone); every point at or above
// it is raw. Three rules keep it:
//
//  1. Ingest (and Repair) refuse arrivals below the watermark — the
//     sealed region is immutable, so late data inside it is a permanent
//     reject (ErrSealed, HTTP 422), counted in IngestStats.Stale.
//  2. FoldRollups drains EVERY stored point below the watermark into
//     buckets, after a barrier over the guard-shard locks guarantees no
//     in-flight ingest that read the old watermark is still mid-append.
//  3. ReplayWAL skips records below the restored watermark — they are
//     already inside the checkpoint's buckets.

// ErrSealed rejects a packet whose arrival time falls below the rollup
// fold watermark. The sealed region's buckets are immutable (queries
// may already have served them), so this is a permanent refusal, not a
// retryable one.
var ErrSealed = errors.New("cloud: arrival time below rollup fold watermark (region sealed)")

// EnableRollups switches the store to tiered retention: points older
// than retainRaw (relative to the data high-water mark) are folded into
// hourly/daily aggregate buckets at every checkpoint and their raw
// copies dropped. Must be called at boot, before LoadFile — the loader
// needs the engine (and its tier geometry) to restore bucket state into.
func (s *Store) EnableRollups(cfg rollup.Config, retainRaw time.Duration) error {
	if retainRaw <= 0 {
		return fmt.Errorf("cloud: rollup raw retention must be positive, got %v", retainRaw)
	}
	eng, err := rollup.New(cfg)
	if err != nil {
		return err
	}
	s.retainRaw = retainRaw
	s.rollups.Store(eng)
	return nil
}

// Rollups returns the rollup engine, nil when rollups are disabled.
func (s *Store) Rollups() *rollup.Engine { return s.rollups.Load() }

// HighWater returns the newest arrival time ever accepted (including
// replayed and repaired records) — the data clock that fold cutoffs are
// derived from. Virtual-time ingest (simulations, cluster-stamped
// arrivals) moves it exactly as far as the data says, so retention is a
// property of the series, not of the serving process's wall clock.
func (s *Store) HighWater() time.Duration {
	return time.Duration(s.highWater.Load())
}

func (s *Store) observeArrival(at time.Duration) {
	n := int64(at)
	for {
		cur := s.highWater.Load()
		if n <= cur || s.highWater.CompareAndSwap(cur, n) {
			return
		}
	}
}

// FoldRollups advances the fold watermark to alignDown(now-retainRaw,
// hourly) and summarizes every raw point below it into the rollup
// tiers, dropping the raw copies from the memtable. Returns the number
// of points folded (0 when rollups are disabled or the watermark did
// not move). The caller persists the new bucket state by
// checkpointing; CheckpointAt does both in the right order.
//
// Publication protocol: the new watermark is published first, then
// every guard-shard lock is taken and released once. Ingest checks the
// watermark under its guard lock, so after the barrier no append below
// the new watermark can be in flight — the drain is complete by
// construction, and rollup.Engine.StaleDrops stays zero.
func (s *Store) FoldRollups(now time.Duration) int {
	r := s.rollups.Load()
	if r == nil {
		return 0
	}
	s.foldMu.Lock()
	defer s.foldMu.Unlock()
	before := r.FoldedBefore()
	wm := r.Advance(now - s.retainRaw)
	if wm <= before {
		return 0
	}
	for _, gs := range s.guards {
		gs.mu.Lock() // barrier, not a critical section: see the publication protocol above
		gs.mu.Unlock()
	}
	return r.Fold(s.db.DrainBelow(wm))
}

// CheckpointAt is Checkpoint with tiered retention: between the WAL
// rotation and the save it folds everything older than the raw
// retention window into the rollup tiers, so the save captures the
// new buckets and the truncation reclaims the folded records' WAL
// segments in the same pass. now is the caller's data clock — normally
// Store.HighWater(). With a memory-only engine this is fold + SaveFile.
//
// Crash windows (verified by TestRollupCrashSafety and, operation by
// operation, TestCheckpointCrashPoints): before the manifest rename, the
// old manifest's watermark stands, the full WAL
// replays the drained points back raw, and the next fold re-summarizes
// them byte-identically (the fold's total order makes re-folding
// deterministic). After the rename but before truncation, ReplayWAL
// skips the folded records via the restored watermark.
func (s *Store) CheckpointAt(path string, now time.Duration) error {
	o := s.ckptObs.Load()
	begin := o.now()
	var saved time.Duration
	err := s.db.Checkpoint(func() error {
		rotated := o.now()
		s.FoldRollups(now)
		o.lap(phaseFold, rotated)
		err := s.SaveFile(path)
		saved = o.now()
		return err
	})
	if err != nil {
		s.ckptFailures.Add(1)
		return err
	}
	o.lap(phaseTruncate, saved)
	o.lap(phaseTotal, begin)
	return nil
}

// storeSource adapts the store to the query engine's Source, reading
// the rollup pointer per call so a snapshot restore mid-flight is
// picked up.
type storeSource struct{ s *Store }

func (src storeSource) RollupEngine() *rollup.Engine { return src.s.rollups.Load() }

func (src storeSource) RawPoints(dev lpwan.EUI64, from, to time.Duration) ([]tsdb.Point, func()) {
	return src.s.db.RangeSlice(dev, from, to)
}

func (src storeSource) RawDevices() []lpwan.EUI64 { return src.s.db.Devices() }

// QueryEngine returns the streaming query layer over this store's
// rollup tiers and raw tail.
func (s *Store) QueryEngine() *query.Engine {
	return &query.Engine{Src: storeSource{s}}
}
