package cloud

import "centuryscale/internal/obs"

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

// RegisterMetrics exposes the endpoint's ingest disposition counters and
// installs a packet-latency histogram on reg under the cloud_ prefix.
// clock feeds the histogram's Now/ObserveSince (nil means process wall
// time); deterministic hosts pass their virtual clock so two seeded runs
// scrape byte-identical latency sums.
func (s *Store) RegisterMetrics(reg *obs.Registry, clock obs.Clock) {
	reg.CounterFunc("cloud_ingest_accepted_total", "packets verified and admitted to the store (acknowledged once their WAL flush returns)", s.stats.accepted.Load)
	reg.CounterFunc("cloud_ingest_duplicates_total", "packets rejected as replays or dual-gateway duplicates", s.stats.duplicates.Load)
	reg.CounterFunc("cloud_ingest_bad_signature_total", "packets failing HMAC verification", s.stats.badSignature.Load)
	reg.CounterFunc("cloud_ingest_malformed_total", "packets failing structural parse", s.stats.malformed.Load)
	reg.CounterFunc("cloud_ingest_unknown_device_total", "packets from devices the key resolver refused", s.stats.unknownDev.Load)
	reg.CounterFunc("cloud_ingest_lease_lapsed_total", "packets arriving while the public endpoint was dark", s.stats.leaseLapsed.Load)
	reg.CounterFunc("cloud_ingest_quarantined_total", "packets from devices whose trust was revoked", s.stats.quarantined.Load)
	reg.CounterFunc("cloud_ingest_persist_failures_total", "packets refused acknowledgement because their WAL flush failed", s.stats.persistFailures.Load)
	reg.CounterFunc("cloud_repair_readings_total", "readings merged from replicas by read-repair", s.stats.repaired.Load)
	reg.CounterFunc("cloud_ingest_stale_total", "packets arriving below the rollup fold watermark (sealed region)", s.stats.stale.Load)
	reg.CounterFunc("cloud_ingest_batch_frames_total", "well-formed frames admitted on the batched ingest path", s.batchFrames.Load)
	reg.CounterFunc("cloud_ingest_batch_frame_errors_total", "frames rejected at the structural layer (torn, bad CRC, bad count)", s.batchFrameErrors.Load)
	reg.CounterFunc("cloud_wal_group_commits_total", "WAL flushes that wrote at least one record (at most one per frame; concurrent frames share them)", s.db.GroupCommits)
	s.obs.Store(&ingestObs{
		latency:      reg.Histogram("cloud_ingest_seconds", "wall time per Ingest call, all dispositions", nil, clock),
		batchLatency: reg.Histogram("cloud_ingest_batch_seconds", "wall time per IngestBatch frame, all dispositions", nil, clock),
	})
}
