package tsdb

import (
	"fmt"

	"centuryscale/internal/obs"
)

// seriesCounts counts devices and points, shard by shard. Unlike Stats it
// touches no filesystem, so it is cheap enough for every scrape.
func (db *DB) seriesCounts() (devices, points int) {
	for _, sh := range db.shards {
		sh.mu.Lock()
		devices += len(sh.points)
		for _, pts := range sh.points {
			points += len(pts)
		}
		sh.mu.Unlock()
	}
	return devices, points
}

// Health reports the log's failed state for an obs.Health check: degraded,
// not failed, because reads are still served and nothing acknowledged is
// at risk — the engine is refusing acknowledgements until a flush
// succeeds again.
func (db *DB) Health() error {
	if db.wal == nil {
		return nil
	}
	failed := db.wal.failed.Load()
	if failed == nil {
		return nil
	}
	return obs.Degraded(fmt.Errorf("wal flush failing, acknowledgements refused: %w", *failed))
}

// RegisterMetrics exposes the engine's counters on reg under the tsdb_
// prefix. Everything but the flush histogram is bridged via
// CounterFunc/GaugeFunc closures over the counters the engine already
// keeps: registration adds nothing to the append hot path, and scraping
// never reads the filesystem (the WAL footprint stays a Stats-only
// figure, since sizing segment files is a ReadDir). The histogram costs
// the flusher two clock readings per flush, never per record.
func (db *DB) RegisterMetrics(reg *obs.Registry) {
	reg.CounterFunc("tsdb_appended_total", "points admitted to the memtable and the log buffer (acknowledged only once flushed)", db.appended.Load)
	reg.CounterFunc("tsdb_replayed_total", "WAL records decoded at boot replay", db.replayed.Load)
	reg.CounterFunc("tsdb_corruptions_total", "torn or corrupt WAL frames tolerated", db.corruptions.Load)
	reg.CounterFunc("tsdb_append_errors_total", "points of Append/AppendBatch calls whose flush failed: admitted, not acknowledged, their retry is a duplicate", db.appendErrors.Load)
	if w := db.wal; w != nil {
		reg.CounterFunc("tsdb_wal_fsyncs_total", "WAL fsync syscalls issued", w.fsyncs.Load)
		reg.CounterFunc("tsdb_wal_fsync_errors_total", "WAL fsync syscalls failed", w.fsyncErrs.Load)
		reg.CounterFunc("tsdb_wal_flushes_total", "log flushes that wrote at least one record", w.flushes.Load)
		reg.CounterFunc("tsdb_wal_flush_failures_total", "log flushes failed (nothing they covered was acknowledged)", w.flushFails.Load)
		reg.GaugeFunc("tsdb_wal_unflushed_bytes", "record bytes appended to the log buffer and not yet flushed", func() float64 {
			flushed := w.flushed.Load() // first: appended only grows, so the difference cannot go negative
			return float64(w.appended.Load() - flushed)
		})
		w.seconds.Store(reg.Histogram("tsdb_wal_flush_seconds", "wall time per log flush (write, fsync per policy, rotation)", nil, w.clock))
	}
	reg.GaugeFunc("tsdb_devices", "devices with stored points", func() float64 {
		d, _ := db.seriesCounts()
		return float64(d)
	})
	reg.GaugeFunc("tsdb_points", "points held in memory", func() float64 {
		_, p := db.seriesCounts()
		return float64(p)
	})
}
