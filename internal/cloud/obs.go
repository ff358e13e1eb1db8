package cloud

import (
	"time"

	"centuryscale/internal/obs"
)

// ingestObs is the hot-path slice of the endpoint's instrumentation: the
// one histogram Ingest itself touches. Everything else is bridged as
// scrape-time closures over counters the store already keeps.
type ingestObs struct {
	latency *obs.Histogram
	// batchLatency observes whole frames on the batched path: one
	// observation per POST /ingest/batch, not per packet, so the two
	// histograms stay comparable to their own routes.
	batchLatency *obs.Histogram
}

// checkpointObs times the checkpoint's phases on the registry's clock. A
// nil one (no RegisterMetrics: simulations, tests) is valid and inert.
type checkpointObs struct {
	phase [phaseTotal + 1]*obs.Histogram
}

const (
	phaseFold = iota
	phaseSealed
	phaseTail
	phaseCommit
	phaseTruncate
	phaseTotal
)

func (o *checkpointObs) now() time.Duration {
	if o == nil {
		return 0
	}
	return o.phase[phaseTotal].Now()
}

// lap observes the time since a prior reading as phase p and returns the
// new reading, the next phase's start.
func (o *checkpointObs) lap(p int, since time.Duration) time.Duration {
	if o == nil {
		return 0
	}
	now := o.now()
	o.phase[p].Observe((now - since).Seconds())
	return now
}

// RegisterMetrics exposes the endpoint's ingest disposition counters and
// installs a packet-latency histogram on reg under the cloud_ prefix.
// clock feeds the histogram's Now/ObserveSince (nil means process wall
// time); deterministic hosts pass their virtual clock so two seeded runs
// scrape byte-identical latency sums.
func (s *Store) RegisterMetrics(reg *obs.Registry, clock obs.Clock) {
	reg.CounterFunc("cloud_ingest_accepted_total", "readings the store holds: packets verified and admitted (acknowledged once their WAL flush returns) plus readings merged by read-repair", s.stats.accepted.Load)
	reg.CounterFunc("cloud_ingest_duplicates_total", "packets rejected as replays or dual-gateway duplicates", s.stats.duplicates.Load)
	reg.CounterFunc("cloud_ingest_bad_signature_total", "packets failing HMAC verification", s.stats.badSignature.Load)
	reg.CounterFunc("cloud_ingest_malformed_total", "packets failing structural parse", s.stats.malformed.Load)
	reg.CounterFunc("cloud_ingest_unknown_device_total", "packets from devices the key resolver refused", s.stats.unknownDev.Load)
	reg.CounterFunc("cloud_ingest_lease_lapsed_total", "packets an older build refused as arriving while the public endpoint was dark, carried from its archive (nothing counts them now)", s.stats.leaseLapsed.Load)
	reg.CounterFunc("cloud_ingest_quarantined_total", "packets an older build refused from quarantined devices, carried from its archive (nothing counts them now)", s.stats.quarantined.Load)
	reg.CounterFunc("cloud_ingest_persist_failures_total", "packets refused acknowledgement because their WAL flush failed", s.stats.persistFailures.Load)
	reg.CounterFunc("cloud_repair_readings_total", "readings merged from replicas by read-repair (counted in cloud_ingest_accepted_total too)", s.stats.repaired.Load)
	reg.CounterFunc("cloud_ingest_stale_total", "packets arriving below the rollup fold watermark (sealed region)", s.stats.stale.Load)
	reg.CounterFunc("cloud_ingest_batch_frames_total", "well-formed frames admitted on the batched ingest path", s.batchFrames.Load)
	reg.CounterFunc("cloud_ingest_batch_frame_errors_total", "frames rejected at the structural layer (torn, bad CRC, bad count)", s.batchFrameErrors.Load)
	reg.CounterFunc("cloud_wal_group_commits_total", "WAL flushes that wrote at least one record (at most one per frame; concurrent frames share them)", s.db.GroupCommits)
	reg.CounterFunc("cloud_checkpoint_bytes_written_total", "bytes checkpoints wrote to sealed segments, tail files and manifests, failed attempts included", s.ckptBytes.Load)
	reg.CounterFunc("cloud_checkpoint_sealed_buckets_total", "rollup buckets checkpoints appended to sealed segments", s.ckptBuckets.Load)
	reg.CounterFunc("cloud_checkpoint_failures_total", "checkpoints that failed (nothing they wrote is named by a manifest, and the WAL behind them was kept)", s.ckptFailures.Load)
	reg.GaugeFunc("cloud_checkpoint_segments", "sealed segment files the manifest in force names", func() float64 { return float64(s.ckptSegments.Load()) })
	reg.GaugeFuncVec("cloud_archive_bytes", "bytes of the data files the manifest in force names, by kind: sealed segments (rollup buckets) and the tail (the raw window)",
		"kind", []string{"sealed", "tail"},
		func() float64 { return float64(s.archSealedBytes.Load()) },
		func() float64 { return float64(s.archTailBytes.Load()) })
	reg.GaugeFunc("cloud_archive_buckets", "rollup buckets the sealed segments named by the manifest in force hold", func() float64 { return float64(s.archBuckets.Load()) })
	ck := &checkpointObs{}
	copy(ck.phase[:], reg.HistogramVec("cloud_checkpoint_phase_seconds", "wall time per checkpoint phase: fold (drain and summarize), sealed (append new buckets), tail (write the raw window), commit (manifest rename and directory fsync), truncate (drop covered WAL segments)",
		"phase", []string{"fold", "sealed", "tail", "commit", "truncate"}, nil, clock))
	ck.phase[phaseTotal] = reg.Histogram("cloud_checkpoint_seconds", "wall time per successful checkpoint, all phases", nil, clock)
	s.ckptObs.Store(ck)
	s.obs.Store(&ingestObs{
		latency:      reg.Histogram("cloud_ingest_seconds", "wall time per Ingest call, all dispositions", nil, clock),
		batchLatency: reg.Histogram("cloud_ingest_batch_seconds", "wall time per IngestBatch frame, all dispositions", nil, clock),
	})
}
