package main

// The metric catalogue: every number this program reports, by name. The
// end-to-end entries and their bounds are mirrored in BENCHMARK.json at
// the repository root (a test keeps the two in step); the per-layer
// entries are attributed to the repository's own packages, so a later
// change optimises what the breakdown points at.

type metricKind int

const (
	endToEnd metricKind = iota
	perLayer
)

type metricDef struct {
	Name   string
	Unit   string
	Better string  // "lower" or "higher"
	Bound  float64 // end-to-end only: share of the baseline median it may worsen by
	Kind   metricKind
	// Source says where a per-layer number comes from: "trace" (the
	// in-process traced run), "scrape" (daemon /metrics, /status and
	// /proc deltas over the untraced window) or "loadgen" (the harness's
	// own clocks).
	Source string
}

var catalog = []metricDef{
	// End to end. The wall-clock figures are those of the window's best
	// one-second slice (slices.go); the bounds are three times the widest
	// spread an A/A pair of ten-run sets showed on any workload, as far
	// as the contract's cap of 0.25 allows (README, "How steady").
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "packets_per_s", Unit: "1/s", Better: "higher", Bound: 0.25},
	{Name: "ack_ms_p50", Unit: "ms", Better: "lower", Bound: 0.25},
	{Name: "disk_bytes_per_packet", Unit: "bytes", Better: "lower", Bound: 0.02},

	// telemetry: packet decode, HMAC, replay window.
	{Name: "telemetry.parse_ns_per_packet", Unit: "ns", Better: "lower", Kind: perLayer, Source: "trace"},
	{Name: "telemetry.verify_ns_per_packet", Unit: "ns", Better: "lower", Kind: perLayer, Source: "trace"},
	{Name: "telemetry.guard_ns_per_packet", Unit: "ns", Better: "lower", Kind: perLayer, Source: "trace"},
	// batch: frame validation and slicing.
	{Name: "batch.split_ns_per_packet", Unit: "ns", Better: "lower", Kind: perLayer, Source: "trace"},
	// cloud: the endpoint's admission logic and HTTP face.
	{Name: "cloud.ingest_self_ns_per_packet", Unit: "ns", Better: "lower", Kind: perLayer, Source: "trace"},
	{Name: "cloud.http_ns_per_packet", Unit: "ns", Better: "lower", Kind: perLayer, Source: "trace"},
	{Name: "cloud.ingest_allocs_per_packet", Unit: "count", Better: "lower", Kind: perLayer, Source: "trace"},
	{Name: "cloud.ingest_batch_ms_mean", Unit: "ms", Better: "lower", Kind: perLayer, Source: "scrape"},
	{Name: "cloud.accepted_share", Unit: "share", Better: "higher", Kind: perLayer, Source: "scrape"},
	{Name: "cloud.shed_total", Unit: "count", Better: "lower", Kind: perLayer, Source: "scrape"},
	{Name: "cloud.accepted_undercount_after_crash", Unit: "count", Better: "lower", Kind: perLayer, Source: "scrape"},
	{Name: "cloud.ingest_single_ns", Unit: "ns", Better: "lower", Kind: perLayer, Source: "trace"},
	{Name: "cloud.http_single_ns", Unit: "ns", Better: "lower", Kind: perLayer, Source: "trace"},
	{Name: "cloud.ingest_single_allocs", Unit: "count", Better: "lower", Kind: perLayer, Source: "trace"},
	{Name: "cloud.ingest_ms_mean", Unit: "ms", Better: "lower", Kind: perLayer, Source: "scrape"},
	// tsdb: WAL append, fsync, memtable.
	{Name: "tsdb.append_ns_per_packet", Unit: "ns", Better: "lower", Kind: perLayer, Source: "trace"},
	{Name: "tsdb.fsync_ns_per_packet", Unit: "ns", Better: "lower", Kind: perLayer, Source: "trace"},
	{Name: "tsdb.fsyncs_per_packet", Unit: "count", Better: "lower", Kind: perLayer, Source: "scrape"},
	{Name: "tsdb.group_commits_per_frame", Unit: "count", Better: "lower", Kind: perLayer, Source: "scrape"},
	{Name: "tsdb.wal_bytes_per_packet", Unit: "bytes", Better: "lower", Kind: perLayer, Source: "scrape"},
	// daemon: the HTTP hop itself.
	{Name: "daemon.loopback_ns_per_packet", Unit: "ns", Better: "lower", Kind: perLayer, Source: "trace"},
	{Name: "daemon.loopback_single_ns", Unit: "ns", Better: "lower", Kind: perLayer, Source: "trace"},
	// cluster: ring split, quorum accounting, second hop.
	{Name: "cluster.fanout_self_ns_per_packet", Unit: "ns", Better: "lower", Kind: perLayer, Source: "trace"},
	{Name: "cluster.replica_max_ns_per_packet", Unit: "ns", Better: "lower", Kind: perLayer, Source: "trace"},
	{Name: "cluster.acked_share", Unit: "share", Better: "higher", Kind: perLayer, Source: "scrape"},
	{Name: "cluster.no_quorum_total", Unit: "count", Better: "lower", Kind: perLayer, Source: "scrape"},
	{Name: "routerd.cpu_us_per_packet", Unit: "us", Better: "lower", Kind: perLayer, Source: "scrape"},
	{Name: "endpointd.cpu_us_per_packet", Unit: "us", Better: "lower", Kind: perLayer, Source: "scrape"},
	// gateway and resilience: the transmit-only edge, traced only.
	{Name: "gateway.handle_self_ns_per_frame", Unit: "ns", Better: "lower", Kind: perLayer, Source: "trace"},
	{Name: "resilience.uplink_self_ns_per_packet", Unit: "ns", Better: "lower", Kind: perLayer, Source: "trace"},
	// query and rollup: the read path.
	{Name: "query.windows_self_ns_per_window", Unit: "ns", Better: "lower", Kind: perLayer, Source: "trace"},
	{Name: "query.topgaps_ms", Unit: "ms", Better: "lower", Kind: perLayer, Source: "trace"},
	{Name: "rollup.seriesview_ns_per_bucket", Unit: "ns", Better: "lower", Kind: perLayer, Source: "trace"},
	{Name: "tsdb.range_ns_per_point", Unit: "ns", Better: "lower", Kind: perLayer, Source: "trace"},
	{Name: "cloud.query_http_ns_per_window", Unit: "ns", Better: "lower", Kind: perLayer, Source: "trace"},
	{Name: "query.daily_buckets_per_request", Unit: "count", Better: "lower", Kind: perLayer, Source: "scrape"},
	{Name: "query.hourly_buckets_per_request", Unit: "count", Better: "lower", Kind: perLayer, Source: "scrape"},
	{Name: "query.raw_points_per_request", Unit: "count", Better: "lower", Kind: perLayer, Source: "scrape"},
	{Name: "query.seconds_mean", Unit: "s", Better: "lower", Kind: perLayer, Source: "scrape"},
	{Name: "loadgen.query_windows_ms_p50", Unit: "ms", Better: "lower", Kind: perLayer, Source: "loadgen"},
	{Name: "loadgen.history_ms_p50", Unit: "ms", Better: "lower", Kind: perLayer, Source: "loadgen"},
	{Name: "loadgen.query_gaps_ms_p50", Unit: "ms", Better: "lower", Kind: perLayer, Source: "loadgen"},
	// checkpoint, snapshot, fold.
	{Name: "cloud.checkpoint_s", Unit: "s", Better: "lower", Kind: perLayer, Source: "trace"},
	{Name: "cloud.checkpoint_ms_per_device_year", Unit: "ms", Better: "lower", Kind: perLayer, Source: "trace"},
	{Name: "cloud.snapshot_encode_s", Unit: "s", Better: "lower", Kind: perLayer, Source: "trace"},
	{Name: "cloud.snapshot_mb", Unit: "MB", Better: "lower", Kind: perLayer, Source: "trace"},
	{Name: "rollup.fold_ns_per_point", Unit: "ns", Better: "lower", Kind: perLayer, Source: "trace"},
	{Name: "tsdb.drain_ns_per_point", Unit: "ns", Better: "lower", Kind: perLayer, Source: "trace"},
	// recovery.
	{Name: "cloud.snapshot_load_s", Unit: "s", Better: "lower", Kind: perLayer, Source: "trace"},
	{Name: "tsdb.replay_ns_per_record", Unit: "ns", Better: "lower", Kind: perLayer, Source: "trace"},
	// the simulator shares cloud.Store.
	{Name: "sim.e10_packets_per_s", Unit: "1/s", Better: "higher", Kind: perLayer, Source: "trace"},
	// what the issue wanted gated and this host cannot repeat (README).
	{Name: "loadgen.query_ms_p50", Unit: "ms", Better: "lower", Kind: perLayer, Source: "loadgen"},
	{Name: "loadgen.ack_ms_p99", Unit: "ms", Better: "lower", Kind: perLayer, Source: "loadgen"},
	{Name: "loadgen.query_ms_p99", Unit: "ms", Better: "lower", Kind: perLayer, Source: "loadgen"},
	{Name: "loadgen.recovery_s", Unit: "s", Better: "lower", Kind: perLayer, Source: "loadgen"},
	{Name: "server.rss_mb_peak", Unit: "MB", Better: "lower", Kind: perLayer, Source: "scrape"},
	{Name: "server.cpu_us_per_packet", Unit: "us", Better: "lower", Kind: perLayer, Source: "scrape"},
	{Name: "loadgen.window_packets_per_s", Unit: "1/s", Better: "higher", Kind: perLayer, Source: "loadgen"},
	// the harness itself.
	{Name: "loadgen.failed_share", Unit: "share", Better: "lower", Kind: perLayer, Source: "loadgen"},
	{Name: "loadgen.transient_read_anomalies", Unit: "count", Better: "lower", Kind: perLayer, Source: "loadgen"},
	{Name: "loadgen.lag_ms_p99", Unit: "ms", Better: "lower", Kind: perLayer, Source: "loadgen"},
	{Name: "loadgen.cpu_share", Unit: "share", Better: "lower", Kind: perLayer, Source: "loadgen"},
	{Name: "loadgen.pool_exhausted", Unit: "count", Better: "lower", Kind: perLayer, Source: "loadgen"},
	{Name: "loadgen.build_s", Unit: "s", Better: "lower", Kind: perLayer, Source: "loadgen"},
	{Name: "loadgen.boot_s", Unit: "s", Better: "lower", Kind: perLayer, Source: "loadgen"},
	{Name: "loadgen.window_s", Unit: "s", Better: "higher", Kind: perLayer, Source: "loadgen"},
	{Name: "host.fsync_us_p50", Unit: "us", Better: "lower", Kind: perLayer, Source: "loadgen"},
	{Name: "host.steal_share", Unit: "share", Better: "lower", Kind: perLayer, Source: "loadgen"},
	{Name: "host.iowait_share", Unit: "share", Better: "lower", Kind: perLayer, Source: "loadgen"},
	{Name: "endpointd.rss_bytes_per_packet", Unit: "bytes", Better: "lower", Kind: perLayer, Source: "scrape"},
	{Name: "trace.overhead_share", Unit: "share", Better: "lower", Kind: perLayer, Source: "trace"},
	{Name: "trace.cpu_closure", Unit: "share", Better: "higher", Kind: perLayer, Source: "trace"},
}

func metricsOf(kind metricKind) []metricDef {
	var out []metricDef
	for _, m := range catalog {
		if m.Kind == kind {
			out = append(out, m)
		}
	}
	return out
}

// workloadDef is one entry of BENCHMARK.json's workloads list.
type workloadDef struct {
	Name string
	Why  string
}

var workloadDefs = []workloadDef{
	{"frames_cpu", "closed loop of 256-packet frames at -wal-fsync=interval: WAL writes stay in the page cache, so HMAC, parse, admission and the memtable do the work; a durability-path change must show nothing here"},
	{"frames_durable", "the same frames and loop at -wal-fsync=always (the default): 16 serial fsyncs per frame do the work and HMAC little; it exercises what frames_cpu bypasses"},
	{"cluster_frames", "the same frames through a cluster-mode routerd (R=2, W=2) over three endpointd: ring split, quorum accounting and a second HTTP hop, with disk out of the picture"},
	{"aged_mixed", "open-loop reads beside single-packet writes on a years-old archive, checkpoints firing in the window: query, rollup, snapshot and the single-packet route, which no frame workload touches"},
}
