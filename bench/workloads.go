package main

import (
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"time"

	"centuryscale/internal/lpwan"
)

// env is what one run of one workload works with.
type env struct {
	outDir string // bench/out: logs, traces, binaries
	binDir string
	work   string // this run's temp dir, on the same disk as outDir
	seed   uint64
	window time.Duration
	trace  bool
	buildS float64
	jan    *janitor
	ports  portAllocator
	admin  *http.Client // status, metrics and read-back requests
	logf   func(format string, args ...any)
}

// warmup precedes every timed window, untimed: connections open, pools
// and maps grow to size, the Go runtimes on both sides settle.
const warmup = 2 * time.Second

// runResult is everything one run produced.
type runResult struct {
	Workload  string             `json:"workload"`
	Seed      uint64             `json:"seed"`
	Seconds   float64            `json:"seconds"`
	Trace     bool               `json:"trace"`
	Correct   bool               `json:"correct"`
	Attempted int                `json:"attempted"`
	Failed    int                `json:"failed"`
	Values    map[string]float64 `json:"values"`
	Samples   map[string]int     `json:"samples,omitempty"`
	Problems  []string           `json:"problems,omitempty"`
}

func newResult(e *env, workload string) *runResult {
	return &runResult{
		Workload: workload,
		Seed:     e.seed,
		Seconds:  e.window.Seconds(),
		Trace:    e.trace,
		Values:   make(map[string]float64),
		Samples:  make(map[string]int),
	}
}

// problem records a failed correctness check. Any problem makes the run
// incorrect and the process exit non-zero.
func (r *runResult) problem(format string, args ...any) {
	r.Problems = append(r.Problems, fmt.Sprintf(format, args...))
}

func (r *runResult) set(name string, v float64) { r.Values[name] = v }

// setTiming records a timing together with the number of samples behind
// it, which is printed beside it.
func (r *runResult) setTiming(name string, v float64, n int) {
	r.Values[name] = v
	r.Samples[name] = n
}

// counters is a point-in-time reading of everything the harness takes
// deltas of: per-daemon CPU and /metrics, the harness's own CPU.
type counters struct {
	at      time.Time
	cpu     []time.Duration
	metrics []metricSet
	status  []endpointStatus
	self    time.Duration
	host    hostCPU
}

// fleet is the set of daemons one workload runs against.
type fleet struct {
	endpoints []*daemon
	router    *daemon // nil without a cluster
	dataDirs  []string
}

func (f *fleet) all() []*daemon {
	if f.router == nil {
		return f.endpoints
	}
	return append(append([]*daemon(nil), f.endpoints...), f.router)
}

// front is where gateways and dashboards connect.
func (f *fleet) front() *daemon {
	if f.router != nil {
		return f.router
	}
	return f.endpoints[0]
}

func (e *env) readCounters(f *fleet) (counters, error) {
	c := counters{at: time.Now(), self: selfCPU(), host: readHostCPU()}
	for _, d := range f.all() {
		cpu, err := cpuTime(d.pid())
		if err != nil {
			return c, fmt.Errorf("%s: %w", d.name, err)
		}
		ms, err := scrapeMetrics(e.admin, d.debugURL)
		if err != nil {
			return c, fmt.Errorf("%s: %w", d.name, err)
		}
		c.cpu = append(c.cpu, cpu)
		c.metrics = append(c.metrics, ms)
	}
	for _, d := range f.endpoints {
		var st endpointStatus
		if err := getJSON(e.admin, d.url+"/status", &st); err != nil {
			return c, fmt.Errorf("%s: %w", d.name, err)
		}
		c.status = append(c.status, st)
	}
	return c, nil
}

// windowDeltas is what changed between two counter readings, summed
// over the endpoints and kept apart for the router.
type windowDeltas struct {
	seconds     float64
	endpointCPU time.Duration
	routerCPU   time.Duration
	selfCPU     time.Duration
	stealShare  float64 // of all CPU time on the machine over the window
	iowaitShare float64
	endpoints   metricSet // summed over endpointd processes
	router      metricSet
}

func deltas(f *fleet, before, after counters) windowDeltas {
	d := windowDeltas{
		seconds:   after.at.Sub(before.at).Seconds(),
		selfCPU:   after.self - before.self,
		endpoints: make(metricSet),
		router:    make(metricSet),
	}
	if total := float64(after.host.total - before.host.total); total > 0 {
		d.stealShare = float64(after.host.steal-before.host.steal) / total
		d.iowaitShare = float64(after.host.iowait-before.host.iowait) / total
	}
	for i, dm := range f.all() {
		cpu := after.cpu[i] - before.cpu[i]
		ms := after.metrics[i].delta(before.metrics[i])
		if dm == f.router {
			d.routerCPU = cpu
			d.router = ms
		} else {
			d.endpointCPU += cpu
			d.endpoints.add(ms)
		}
	}
	return d
}

// newDaemon lays out one daemon under the run's temp dir. Logs go to
// out/<workload>-<name>.log and survive the run.
func (e *env) newDaemon(workload, name, bin string) (*daemon, error) {
	port, err := e.ports.next()
	if err != nil {
		return nil, err
	}
	debug, err := e.ports.next()
	if err != nil {
		return nil, err
	}
	d := &daemon{
		name:     name,
		bin:      filepath.Join(e.binDir, bin),
		url:      fmt.Sprintf("http://127.0.0.1:%d", port),
		debugURL: fmt.Sprintf("http://127.0.0.1:%d", debug),
		logPath:  filepath.Join(e.outDir, workload+"-"+name+".log"),
	}
	d.args = []string{
		"-listen", fmt.Sprintf("127.0.0.1:%d", port),
		"-debug-addr", fmt.Sprintf("127.0.0.1:%d", debug),
	}
	os.Remove(d.logPath)
	e.jan.addProc(d)
	return d, nil
}

// newEndpoint lays out an endpointd on its own data dir. extra are
// appended to the defaults everywhere else (-shards 16, -max-inflight
// 256, GOMAXPROCS unset).
func (e *env) newEndpoint(workload, name, fsync string, extra ...string) (*daemon, string, error) {
	d, err := e.newDaemon(workload, name, "endpointd")
	if err != nil {
		return nil, "", err
	}
	dataDir := filepath.Join(e.work, name, "tsdb")
	if err := os.MkdirAll(dataDir, 0o755); err != nil {
		return nil, "", err
	}
	d.args = append(d.args, "-master", fleetMaster, "-data-dir", dataDir, "-wal-fsync", fsync)
	d.args = append(d.args, extra...)
	return d, dataDir, nil
}

// singleFleet is one endpointd.
func (e *env) singleFleet(workload, fsync string) (*fleet, error) {
	d, dir, err := e.newEndpoint(workload, "endpointd", fsync)
	if err != nil {
		return nil, err
	}
	return &fleet{endpoints: []*daemon{d}, dataDirs: []string{dir}}, nil
}

// clusterFleet is a cluster-mode routerd (R=2, W=2) over three
// endpointd at -wal-fsync=interval.
func (e *env) clusterFleet(workload string) (*fleet, error) {
	f := &fleet{}
	var peers []string
	for i := 0; i < 3; i++ {
		d, dir, err := e.newEndpoint(workload, fmt.Sprintf("endpointd-%d", i), "interval", "-cluster-secret", clusterSecret)
		if err != nil {
			return nil, err
		}
		f.endpoints = append(f.endpoints, d)
		f.dataDirs = append(f.dataDirs, dir)
		peers = append(peers, d.url)
	}
	r, err := e.newDaemon(workload, "routerd", "routerd")
	if err != nil {
		return nil, err
	}
	r.args = append(r.args,
		"-abp-master", "0123456789abcdef",
		"-cluster-peers", strings.Join(peers, ","),
		"-replicas", "2", "-write-quorum", "2",
		"-cluster-secret", clusterSecret)
	f.router = r
	return f, nil
}

// boot starts every daemon of the fleet (endpoints first, in parallel,
// then the router) and returns the time from the first exec to the last
// daemon's first 200. accept, when set, is the condition endpointd's
// /status must meet to count as up.
func (e *env) boot(f *fleet, accept func(status []byte) bool) (time.Duration, error) {
	var began time.Time
	for i, d := range f.endpoints {
		t, err := d.start()
		if err != nil {
			return 0, err
		}
		if i == 0 {
			began = t
		}
	}
	var last time.Time
	for _, d := range f.endpoints {
		t, err := d.ready(e.admin, 60*time.Second, accept)
		if err != nil {
			return 0, fmt.Errorf("%w\n--- %s ---\n%s", err, d.logPath, d.tailLog())
		}
		if t.After(last) {
			last = t
		}
	}
	if f.router != nil {
		if _, err := f.router.start(); err != nil {
			return 0, err
		}
		t, err := f.router.ready(e.admin, 30*time.Second, nil)
		if err != nil {
			return 0, fmt.Errorf("%w\n--- %s ---\n%s", err, f.router.logPath, f.router.tailLog())
		}
		last = t
	}
	return last.Sub(began), nil
}

func (f *fleet) killAll() {
	for _, d := range f.all() {
		d.kill()
	}
}

// wipe empties the fleet's data dirs between boot rehearsals.
func (f *fleet) wipe() error {
	for _, dir := range f.dataDirs {
		if err := os.RemoveAll(dir); err != nil {
			return err
		}
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return err
		}
	}
	return nil
}

// bootRehearsals is how many times set-up boots the fleet. The median
// is what setup_s carries; the last boot is the one the run uses.
const bootRehearsals = 3

func (e *env) bootMedian(f *fleet) (float64, error) {
	var times []float64
	for i := 0; i < bootRehearsals; i++ {
		if i > 0 {
			f.killAll()
			if err := f.wipe(); err != nil {
				return 0, err
			}
		}
		d, err := e.boot(f, nil)
		if err != nil {
			return 0, err
		}
		times = append(times, d.Seconds())
	}
	return newSample(times).p50(), nil
}

// frameSpec is what distinguishes the three frame workloads.
type frameSpec struct {
	name    string
	fsync   string
	cluster bool
	// poolFrames per connection: enough for warm-up plus window at well
	// above the rate this host sustains, so a faster server is still
	// measured over the whole window.
	poolFrames int
}

var frameSpecs = map[string]frameSpec{
	"frames_cpu":     {name: "frames_cpu", fsync: "interval", poolFrames: 20000},
	"frames_durable": {name: "frames_durable", fsync: "always", poolFrames: 5000},
	"cluster_frames": {name: "cluster_frames", cluster: true, poolFrames: 8000},
}

// poolSlices is how many timed slices the frame pools are sealed in.
const poolSlices = 8

// buildPools seals both connections' pools side by side (the host has a
// core for each), slice by slice, and returns the slice timings.
func buildPools(seed uint64, frames int) ([]*framePool, []float64, error) {
	builders := make([]*poolBuilder, connections)
	for c := range builders {
		builders[c] = newPoolBuilder(seed, c, frames)
	}
	per := frames / poolSlices
	var slices []float64
	for s := 0; s < poolSlices; s++ {
		n := per
		if s == poolSlices-1 {
			n = frames - per*(poolSlices-1)
		}
		start := time.Now()
		errs := make([]error, connections)
		var wg sync.WaitGroup
		for c, b := range builders {
			wg.Add(1)
			go func(c int, b *poolBuilder) {
				defer wg.Done()
				errs[c] = b.build(n)
			}(c, b)
		}
		wg.Wait()
		for _, err := range errs {
			if err != nil {
				return nil, nil, err
			}
		}
		slices = append(slices, time.Since(start).Seconds())
	}
	pools := make([]*framePool, connections)
	for c, b := range builders {
		pools[c] = b.pool
	}
	return pools, slices, nil
}

// runLoops drives every connection's loop from a common start for d and
// merges what they saw.
func runLoops(loops []*frameLoop, d time.Duration) loopStats {
	start := time.Now()
	until := start.Add(d)
	parts := make([]loopStats, len(loops))
	var wg sync.WaitGroup
	for i, l := range loops {
		wg.Add(1)
		go func(i int, l *frameLoop) {
			defer wg.Done()
			parts[i] = l.run(start, until)
		}(i, l)
	}
	wg.Wait()
	return mergeLoops(parts)
}

// runFrames is the three closed-loop frame workloads.
func (e *env) runFrames(spec frameSpec) (*runResult, error) {
	res := newResult(e, spec.name)

	// Set-up: seal every packet the run will send, then boot.
	pools, sealing, err := buildPools(e.seed, spec.poolFrames)
	if err != nil {
		return nil, err
	}
	poolS := newSample(sealing).p50() * poolSlices
	var f *fleet
	if spec.cluster {
		f, err = e.clusterFleet(spec.name)
	} else {
		f, err = e.singleFleet(spec.name, spec.fsync)
	}
	if err != nil {
		return nil, err
	}
	bootS, err := e.bootMedian(f)
	if err != nil {
		return nil, err
	}
	if err := e.recordSetup(res, poolS+bootS, bootS, f.dataDirs[0]); err != nil {
		return nil, err
	}

	loops := make([]*frameLoop, connections)
	for c := range loops {
		loops[c] = &frameLoop{
			client:     newConnClient(),
			url:        f.front().url + "/ingest/batch",
			pool:       pools[c],
			acceptedIn: endpointAccepted,
		}
		if spec.cluster {
			loops[c].acceptedIn = routerAccepted
		}
	}

	e.logf("%s: warm-up %v", spec.name, warmup)
	warm := runLoops(loops, warmup)
	before, err := e.readCounters(f)
	if err != nil {
		return nil, err
	}
	e.logf("%s: window %v", spec.name, e.window)
	win := runLoops(loops, e.window)
	after, err := e.readCounters(f)
	if err != nil {
		return nil, err
	}
	d := deltas(f, before, after)
	e.logf("%s: frames acknowledged per second %v", spec.name, win.perSecond())

	res.Attempted = win.attempted
	res.Failed = win.failed
	if win.firstErr != nil {
		res.problem("window: %d of %d frames failed, first: %v", win.failed, win.attempted, win.firstErr)
	}
	if warm.failed > 0 {
		res.problem("warm-up: %d of %d frames failed, first: %v", warm.failed, warm.attempted, warm.firstErr)
	}
	if win.accepted == 0 {
		return nil, fmt.Errorf("%s: no packet was acknowledged in the window (first error: %v)", spec.name, win.firstErr)
	}

	// Wall-clock figures are those of the window's best one-second slice
	// (see slices.go); the whole-window tail is reported beside them.
	slices := wholeSlices(e.window)
	accepted := float64(win.accepted)
	perFrame := accepted / float64(len(win.done))
	p50, n := bestMedian(win.done, sliceWidth, slices)
	whole := newSample(win.latencies())
	res.set("packets_per_s", bestRate(win.done, sliceWidth, slices, perFrame))
	res.setTiming("ack_ms_p50", p50, n)
	res.setTiming("loadgen.ack_ms_p99", whole.pct(99), whole.n())
	res.set("loadgen.window_packets_per_s", accepted/win.seconds())
	res.set("server.cpu_us_per_packet", micros(d.endpointCPU+d.routerCPU)/accepted)
	res.set("endpointd.cpu_us_per_packet", micros(d.endpointCPU)/accepted)
	res.set("loadgen.window_s", win.seconds())
	res.set("loadgen.failed_share", float64(win.failed)/float64(win.attempted))
	recordHost(res, d)
	if win.exhausted {
		res.set("loadgen.pool_exhausted", 1)
	}

	// Scraped per-layer counts over the window.
	ep := d.endpoints
	frames := ep["cloud_ingest_batch_frames_total"]
	epAccepted := ep["cloud_ingest_accepted_total"]
	if epAccepted > 0 {
		res.set("tsdb.fsyncs_per_packet", ep["tsdb_wal_fsyncs_total"]/epAccepted)
		var walBytes float64
		for i := range f.endpoints {
			walBytes += float64(after.status[i].Storage.WALBytes - before.status[i].Storage.WALBytes)
		}
		res.set("tsdb.wal_bytes_per_packet", walBytes/epAccepted)
	}
	if frames > 0 {
		res.set("tsdb.group_commits_per_frame", ep["cloud_wal_group_commits_total"]/frames)
	}
	res.set("cloud.ingest_batch_ms_mean", ep.histMean("cloud_ingest_batch_seconds")*1e3)
	res.set("cloud.accepted_share", acceptedShare(ep))
	var shed float64
	for i := range f.endpoints {
		shed += float64(after.status[i].Shed - before.status[i].Shed)
	}
	res.set("cloud.shed_total", shed)
	if spec.cluster {
		acked := d.router["cluster_ingest_acked_total"]
		noQuorum := d.router["cluster_ingest_no_quorum_total"]
		if acked+noQuorum > 0 {
			res.set("cluster.acked_share", acked/(acked+noQuorum))
		}
		res.set("cluster.no_quorum_total", noQuorum)
		res.set("routerd.cpu_us_per_packet", micros(d.routerCPU)/accepted)
	}

	// Memory and disk, after the window and before anything is killed.
	var rss int64
	var epRSS int64
	for _, dm := range f.all() {
		hwm, err := peakRSS(dm.pid())
		if err != nil {
			return nil, err
		}
		rss += hwm
		if dm != f.router {
			epRSS += hwm
		}
	}
	res.set("server.rss_mb_peak", float64(rss)/(1<<20))
	var held float64
	for _, st := range after.status {
		held += float64(st.Storage.Points)
	}
	res.set("endpointd.rss_bytes_per_packet", float64(epRSS)/held)
	var disk int64
	for _, dir := range f.dataDirs {
		n, err := dirBytes(dir)
		if err != nil {
			return nil, err
		}
		disk += n
	}
	res.set("disk_bytes_per_packet", float64(disk)/held)

	// Correctness: nothing generated is a duplicate, so every packet of
	// every acknowledged frame must have been accepted, and the server
	// must agree.
	total := warm.accepted + win.accepted
	sentPackets := (len(warm.done) + len(win.done)) * framePackets
	if total != sentPackets {
		res.problem("acknowledged frames carried %d packets but responses accepted %d", sentPackets, total)
	}
	replicas := 1
	if spec.cluster {
		replicas = 2
	}
	var serverAccepted uint64
	for _, st := range after.status {
		serverAccepted += st.Stats.Accepted
	}
	if serverAccepted != uint64(replicas*total) {
		res.problem("/status reports %d accepted over %d replicas, responses acknowledged %d", serverAccepted, replicas, total)
	}
	if got := int(epAccepted); got != replicas*win.accepted {
		res.problem("window: /metrics accepted rose by %d, responses acknowledged %d × %d replicas", got, win.accepted, replicas)
	}

	// Read-back: the fixed device sample's histories, checked against
	// what the generator knows it sent; then the read mix, timed.
	want := e.expectedReadings(pools, loops)
	histories, fetch := e.verifyHistories(res, f.front(), want, "after the window")
	res.setTiming("loadgen.history_ms_p50", fetch.p50(), fetch.n())
	reads, err := e.readBack(res, f.front(), histories, want)
	if err != nil {
		return nil, err
	}
	q50, n := bestMedian(reads, readBackSlice, int(readBackFor.Seconds()/readBackSlice))
	wholeReads := newSample(latenciesOf(reads))
	res.setTiming("loadgen.query_ms_p50", q50, n)
	res.setTiming("loadgen.query_ms_p99", wholeReads.pct(99), wholeReads.n())

	// Crash and recover: SIGKILL every endpointd, exec again on the same
	// directories, and require every acknowledged packet back.
	recovery, err := e.crashAndRecover(f, func(i int, st endpointStatus) bool {
		return st.Stats.Accepted >= after.status[i].Stats.Accepted
	})
	if err != nil {
		return nil, err
	}
	res.set("loadgen.recovery_s", recovery.Seconds())
	e.verifyHistories(res, f.front(), want, "after SIGKILL and restart")

	f.killAll()
	res.Correct = len(res.Problems) == 0
	return res, nil
}

// recordSetup stores what set-up cost and, on a traced run, probes the
// data directory's disk before any load reaches it.
func (e *env) recordSetup(res *runResult, setupS, bootS float64, dataDir string) error {
	res.set("setup_s", setupS)
	res.set("loadgen.boot_s", bootS)
	res.set("loadgen.build_s", e.buildS)
	if !e.trace {
		return nil
	}
	probe, err := probeFsync(dataDir, 200)
	if err != nil {
		return err
	}
	res.set("host.fsync_us_p50", newSample(probe).p50())
	return nil
}

// recordHost stores what the window cost the generator and what the
// hypervisor and the disk took from it.
func recordHost(res *runResult, d windowDeltas) {
	res.set("loadgen.cpu_share", d.selfCPU.Seconds()/(d.seconds*float64(connections)))
	res.set("host.steal_share", d.stealShare)
	res.set("host.iowait_share", d.iowaitShare)
}

func micros(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// acceptedShare is accepted over every disposition the endpoint counts:
// the useful-outcome ratio of the admission layer.
func acceptedShare(ep metricSet) float64 {
	acc := ep["cloud_ingest_accepted_total"]
	all := acc
	for _, name := range []string{
		"cloud_ingest_duplicates_total", "cloud_ingest_bad_signature_total", "cloud_ingest_malformed_total",
		"cloud_ingest_unknown_device_total", "cloud_ingest_lease_lapsed_total", "cloud_ingest_quarantined_total",
		"cloud_ingest_persist_failures_total", "cloud_ingest_stale_total",
	} {
		all += ep[name]
	}
	if all == 0 {
		return 0
	}
	return acc / all
}

// readBackDevices is the size of the fixed device sample whose full
// histories are read back and checked, before and after the crash.
const readBackDevices = 64

// The timed read-back asks, back to back for readBackFor, for the oldest
// readBackReadings readings of readBackTargets sampled devices; its
// figure is that of the best readBackSlice-second slice. A fixed count,
// not a fixed span of time: in a closed loop the readings a span holds
// vary with the throughput, and the read's cost with them.
const (
	readBackFor      = 2 * time.Second
	readBackSlice    = 0.25
	readBackReadings = 256
	readBackTargets  = 2
)

func latenciesOf(samples []timed) []float64 {
	out := make([]float64, len(samples))
	for i, s := range samples {
		out[i] = s.ms
	}
	return out
}

// expectedReadings is what the generator knows the sampled devices were
// acknowledged for: every reading in the frames each loop has sent.
func (e *env) expectedReadings(pools []*framePool, loops []*frameLoop) map[lpwan.EUI64][]reading {
	wanted := make(map[lpwan.EUI64]bool, readBackDevices)
	for _, rank := range sampleRanks(readBackDevices) {
		wanted[fleetDevice(rank)] = true
	}
	out := make(map[lpwan.EUI64][]reading, readBackDevices)
	for c, p := range pools {
		for dev, rs := range p.readingsOf(loops[c].next, wanted) {
			out[dev] = rs
		}
	}
	return out
}

// historyEntry is one element of GET /history's answer.
type historyEntry struct {
	AtSeconds float64 `json:"at_seconds"`
	Seq       uint32  `json:"seq"`
	Value     float32 `json:"value"`
}

func (e *env) history(front *daemon, dev lpwan.EUI64, query string) ([]historyEntry, time.Duration, error) {
	url := front.url + "/history?device=" + dev.String() + query
	start := time.Now()
	resp, err := e.admin.Get(url)
	if err != nil {
		return nil, 0, err
	}
	body, err := drain(resp)
	took := time.Since(start)
	if err != nil {
		return nil, 0, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, 0, fmt.Errorf("GET %s: %s: %s", url, resp.Status, firstLine(body))
	}
	var out []historyEntry
	if err := json.Unmarshal(body, &out); err != nil {
		return nil, 0, fmt.Errorf("GET %s: %w", url, err)
	}
	return out, took, nil
}

// checkRun requires got to be a run of consecutive expected readings:
// what a time-sliced history of an in-order device stream must be.
func checkRun(got []historyEntry, want []reading) error {
	if len(got) == 0 {
		return nil
	}
	first := int(got[0].Seq) - 1
	if first < 0 || first+len(got) > len(want) {
		return fmt.Errorf("seq %d..%d outside the %d readings sent", got[0].Seq, got[len(got)-1].Seq, len(want))
	}
	for i, g := range got {
		if w := want[first+i]; g.Seq != w.Seq || g.Value != w.Value {
			return fmt.Errorf("entry %d is seq %d value %v, sent seq %d value %v", i, g.Seq, g.Value, w.Seq, w.Value)
		}
	}
	return nil
}

// readBack is the frame workloads' read mix: after the window, on one
// connection, GET /history for the oldest readBackReadings readings of a
// sampled device, every answer checked. held is what the
// verification just read, which is where the arrival time to cut at
// comes from: the server stamps arrivals, the generator cannot know them.
func (e *env) readBack(res *runResult, front *daemon, held map[lpwan.EUI64][]historyEntry, want map[lpwan.EUI64][]reading) ([]timed, error) {
	type target struct {
		dev   lpwan.EUI64
		query string
		count int
	}
	// The coldest sampled devices that hold more than the count: through
	// a router a read costs the device's whole history on two replicas
	// whatever span it asks for, and a device that holds just over the
	// count costs the same in every run, whatever the throughput was.
	var targets []target
	ranks := sampleRanks(readBackDevices)
	for i := len(ranks) - 1; i >= 0 && len(targets) < readBackTargets; i-- {
		dev := fleetDevice(ranks[i])
		h := held[dev]
		// Cut between two readings whose arrival stamps differ (readings
		// of one frame share the router's stamp), at or after the count.
		k := readBackReadings
		for k < len(h) && h[k].AtSeconds == h[k-1].AtSeconds {
			k++
		}
		if k >= len(h) {
			continue
		}
		to := (h[k-1].AtSeconds + h[k].AtSeconds) / 2
		targets = append(targets, target{dev, fmt.Sprintf("&from=0&to=%.9f", to), k})
	}
	if len(targets) == 0 {
		return nil, fmt.Errorf("read-back: no sampled device holds more than %d readings", readBackReadings)
	}
	var took []timed
	start := time.Now()
	for i := 0; time.Since(start) < readBackFor; i++ {
		t := targets[i%len(targets)]
		got, d, err := e.history(front, t.dev, t.query)
		res.Attempted++
		if err == nil && len(got) != t.count {
			err = fmt.Errorf("%v%s returned %d readings, %d arrived by then", t.dev, t.query, len(got), t.count)
		}
		if err == nil {
			err = checkRun(got, want[t.dev])
		}
		if err != nil {
			res.Failed++
			res.problem("read-back: %v", err)
			if res.Failed > 10 {
				return nil, fmt.Errorf("read-back: giving up after %d failures: %v", res.Failed, err)
			}
			continue
		}
		took = append(took, timed{at: time.Since(start).Seconds(), ms: float64(d) / float64(time.Millisecond)})
	}
	return took, nil
}

// verifyHistories requires every sampled device's full history to be
// exactly what was acknowledged: no loss, no duplicate, no wrong value.
// It returns what it read and how long the reads took.
func (e *env) verifyHistories(res *runResult, front *daemon, want map[lpwan.EUI64][]reading, when string) (map[lpwan.EUI64][]historyEntry, sample) {
	held := make(map[lpwan.EUI64][]historyEntry, readBackDevices)
	var took []float64
	for _, rank := range sampleRanks(readBackDevices) {
		dev := fleetDevice(rank)
		got, d, err := e.history(front, dev, "")
		res.Attempted++
		if err != nil {
			res.Failed++
			res.problem("%s: %v", when, err)
			continue
		}
		held[dev] = got
		took = append(took, float64(d)/float64(time.Millisecond))
		if len(got) != len(want[dev]) {
			res.Failed++
			res.problem("%s: %v holds %d readings, %d were acknowledged", when, dev, len(got), len(want[dev]))
			continue
		}
		if err := checkRun(got, want[dev]); err != nil {
			res.Failed++
			res.problem("%s: %v: %v", when, dev, err)
		}
	}
	return held, newSample(took)
}

// crashAndRecover SIGKILLs every endpointd, execs each again with the
// same arguments, and returns the time from the first exec to the moment
// every one of them reports, on /status, the state recovered requires.
func (e *env) crashAndRecover(f *fleet, recovered func(i int, st endpointStatus) bool) (time.Duration, error) {
	for _, d := range f.endpoints {
		d.kill()
	}
	var began time.Time
	for i, d := range f.endpoints {
		t, err := d.start()
		if err != nil {
			return 0, err
		}
		if i == 0 {
			began = t
		}
	}
	var last time.Time
	for i, d := range f.endpoints {
		i := i
		t, err := d.ready(e.admin, 120*time.Second, func(body []byte) bool {
			var st endpointStatus
			return json.Unmarshal(body, &st) == nil && recovered(i, st)
		})
		if err != nil {
			return 0, fmt.Errorf("recovery: %w\n--- %s ---\n%s", err, d.logPath, d.tailLog())
		}
		if t.After(last) {
			last = t
		}
	}
	if f.router != nil {
		// The router's failure detector may have marked the replicas
		// suspect while they were down; reads skip only nodes it calls
		// down, and its next heartbeat (500 ms) clears either.
		if err := e.routerSeesAll(f.router); err != nil {
			return 0, err
		}
	}
	return last.Sub(began), nil
}

func (e *env) routerSeesAll(router *daemon) error {
	deadline := time.Now().Add(15 * time.Second)
	for {
		var st struct {
			Nodes []struct {
				State string `json:"state"`
			} `json:"nodes"`
		}
		err := getJSON(e.admin, router.url+"/status", &st)
		alive := 0
		for _, n := range st.Nodes {
			if n.State == "alive" {
				alive++
			}
		}
		if err == nil && alive == len(st.Nodes) {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("routerd still sees %d of %d replicas alive after restart (%v)", alive, len(st.Nodes), err)
		}
		time.Sleep(50 * time.Millisecond)
	}
}
