package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"path/filepath"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"centuryscale/internal/cloud"
	"centuryscale/internal/lpwan"
)

// aged_mixed: reads beside writes on an old deployment. Two open loops,
// one connection each — dashboard users and devices are independent of
// one another and of the server's speed — while checkpoints fire inside
// the window and re-encode the archive.

const (
	// Rates are far below saturation, so a faster read path cannot steal
	// CPU from the writer and make ack_ms look worse.
	agedReadsPerS  = 100
	agedWritesPerS = 200
	// agedCheckpoints fire inside every window: -save-every is a third
	// of the window, and the loops' clock starts when the daemon's does.
	agedCheckpoints = 3
	// referenceEvery: every n-th /query answer is compared with the
	// reference computed from the generated inputs.
	referenceEvery = 20
)

// queryAnswer is the part of GET /query's response the checks read.
type queryAnswer struct {
	FoldedBeforeSeconds float64 `json:"folded_before_seconds"`
	Windows             []struct {
		StartSeconds float64 `json:"start_seconds"`
		Count        uint64  `json:"count"`
		Sum          float64 `json:"sum"`
	} `json:"windows"`
}

// agedRun is the state the two loops and the checks share.
type agedRun struct {
	e       *env
	res     *runResult
	archive *agedArchive
	front   *daemon
	reads   []readRequest
	writes  []writeRequest

	// lastHour is the newest hour index the writer has had acknowledged,
	// so the history reads can ask for "the last 7 days" of data time.
	lastHour atomic.Int64

	mu       sync.Mutex
	compared int // /query answers checked against the reference
	suspects []suspect
	ackedBy  [agedDevices]int
}

func (a *agedRun) readURL(r readRequest) string {
	dev := agedDevice(r.Device)
	switch r.Kind {
	case readWindows:
		return fmt.Sprintf("%s/query?device=%s&step=%d&from=0", a.front.url, dev, int64(week/time.Second))
	case readHistory:
		to := agedAt(int(a.lastHour.Load())) + time.Hour
		from := to - 7*24*time.Hour
		return fmt.Sprintf("%s/history?device=%s&from=%d&to=%d", a.front.url, dev, int64(from/time.Second), int64(to/time.Second))
	default:
		return a.front.url + "/query/gaps?k=5"
	}
}

// doRead performs scheduled read i and checks its answer.
func (a *agedRun) doRead(client *http.Client, i int) error {
	r := a.reads[i]
	url := a.readURL(r)
	resp, err := client.Get(url)
	if err != nil {
		return err
	}
	body, err := drain(resp)
	if err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: %s: %s", url, resp.Status, firstLine(body))
	}
	switch r.Kind {
	case readWindows:
		if i%referenceEvery != 0 {
			return nil
		}
		var qa queryAnswer
		if err := json.Unmarshal(body, &qa); err != nil {
			return fmt.Errorf("GET %s: %w", url, err)
		}
		a.mu.Lock()
		a.compared++
		if err := a.checkAgainstReference(r.Device, qa); err != nil {
			// Not failed yet: see recheck.
			a.suspects = append(a.suspects, suspect{device: r.Device, err: err})
		}
		a.mu.Unlock()
	case readHistory:
		var hs []historyEntry
		if err := json.Unmarshal(body, &hs); err != nil {
			return fmt.Errorf("GET %s: %w", url, err)
		}
		// Seven days of an hourly device, all inside the raw window.
		if len(hs) < 7*24-1 || len(hs) > 7*24+1 {
			return fmt.Errorf("GET %s: %d readings in 7 days of an hourly device", url, len(hs))
		}
	case readGaps:
		var gaps []struct {
			Device string `json:"device"`
		}
		if err := json.Unmarshal(body, &gaps); err != nil {
			return fmt.Errorf("GET %s: %w", url, err)
		}
		if len(gaps) != 5 {
			return fmt.Errorf("GET %s: %d entries, asked for 5", url, len(gaps))
		}
	}
	return nil
}

// suspect is a /query answer that disagreed with the reference inside
// the window. cloud.Store.FoldRollups publishes the new fold watermark
// before it has moved the points below it into buckets, and a query that
// lands in between sees the new watermark, the old buckets, and no raw
// points for the span between: a transient under-count of the weeks being
// folded. That is the server's behaviour today and not this benchmark's
// to fix, so a disagreement is re-asked once the window is over: it
// counts as a wrong answer only if it persists.
type suspect struct {
	device int
	err    error
}

// recheck re-asks every suspect's query and reports how many were
// transient. A persistent disagreement is a problem.
func (a *agedRun) recheck() (transient int) {
	for _, s := range a.suspects {
		var qa queryAnswer
		url := a.readURL(readRequest{Kind: readWindows, Device: s.device})
		if err := getJSON(a.e.admin, url, &qa); err != nil {
			a.res.problem("re-asking %s: %v", url, err)
			continue
		}
		if err := a.checkAgainstReference(s.device, qa); err != nil {
			a.res.Failed++
			a.res.problem("GET %s: wrong in the window (%v) and still wrong after it: %v", url, s.err, err)
			continue
		}
		transient++
	}
	return transient
}

// checkAgainstReference compares the sealed weeks of a /query answer —
// the ones wholly below the fold watermark the answer itself reports —
// with the generator's own count and sum. Sums of quarter-unit values
// are exact in float64, so equality is the test.
func (a *agedRun) checkAgainstReference(device int, qa queryAnswer) error {
	sealed := time.Duration(qa.FoldedBeforeSeconds * float64(time.Second))
	ref := a.archive.referenceWeeks(device, sealed)
	if len(ref) == 0 {
		return fmt.Errorf("answer reports no sealed week (folded_before %v)", sealed)
	}
	if len(qa.Windows) < len(ref) {
		return fmt.Errorf("answer has %d windows, %d weeks are sealed", len(qa.Windows), len(ref))
	}
	for w, want := range ref {
		got := qa.Windows[w]
		if got.Count != want.Count || got.Sum != want.Sum {
			return fmt.Errorf("week %d: answered count %d sum %v, generated count %d sum %v", w, got.Count, got.Sum, want.Count, want.Sum)
		}
	}
	return nil
}

// doWrite performs scheduled write i: one bare packet, stamped with its
// virtual arrival through the cluster header.
func (a *agedRun) doWrite(client *http.Client, i int) error {
	w := a.writes[i]
	req, err := http.NewRequest("POST", a.front.url+"/ingest", bytes.NewReader(w.Wire))
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", "application/octet-stream")
	req.Header.Set(cloud.ClusterSecretHeader, clusterSecret)
	req.Header.Set(cloud.ClusterArrivalHeader, strconv.FormatInt(int64(w.Arrival), 10))
	resp, err := client.Do(req)
	if err != nil {
		return err
	}
	body, err := drain(resp)
	if err != nil {
		return err
	}
	if resp.StatusCode != http.StatusAccepted {
		return fmt.Errorf("POST /ingest packet %d: %s: %s", i, resp.Status, firstLine(body))
	}
	a.lastHour.Store(int64(w.Hour))
	a.mu.Lock()
	a.ackedBy[w.Device]++
	a.mu.Unlock()
	return nil
}

// inWindow selects the outcomes whose due time fell inside the timed
// window, and splits them into latencies, lags and errors.
func inWindow(out []openOutcome, due func(i int) time.Duration, from, to time.Duration) (lat, lag []float64, idx []int, failed int, firstErr error) {
	for i, o := range out {
		if d := due(i); d < from || d >= to {
			continue
		}
		if o.err != nil {
			failed++
			if firstErr == nil {
				firstErr = o.err
			}
			continue
		}
		lat = append(lat, o.latencyMs)
		lag = append(lag, o.lagMs)
		idx = append(idx, i)
	}
	return
}

func (e *env) runAged() (*runResult, error) {
	const name = "aged_mixed"
	res := newResult(e, name)
	// Checkpoints fire at saveEvery, 2×saveEvery, ... on the loops' clock.
	// The window opens a quarter of a period before the first, so the last
	// of its three has three quarters of a period to finish inside it.
	saveEvery := e.window / agedCheckpoints
	warm := saveEvery * 3 / 4
	total := warm + e.window

	// Set-up: the archive, through cloud.Store's public calls, then every
	// packet the writer will send, then the daemon's boot on both.
	e.logf("%s: building the archive: %d devices x %d years hourly, %d-record WAL tail", name, agedDevices, agedYears, tailRecords)
	archive, err := buildAged(e.work, e.seed, agedHours)
	if err != nil {
		return nil, err
	}
	sealStart := time.Now()
	a := &agedRun{
		e: e, res: res, archive: archive,
		reads:  readSchedule(e.seed, int(total.Seconds()*agedReadsPerS), agedReadsPerS),
		writes: writeSchedule(e.seed, int(total.Seconds()*agedWritesPerS), agedWritesPerS, agedHours),
	}
	a.lastHour.Store(int64(agedHours - 1))
	scheduleS := time.Since(sealStart).Seconds()

	d, err := e.newDaemon(name, "endpointd", "endpointd")
	if err != nil {
		return nil, err
	}
	d.args = append(d.args,
		"-master", fleetMaster,
		"-data-dir", archive.dataDir,
		"-snapshot", archive.snapshot,
		"-save-every", saveEvery.String(),
		"-retain-raw", agedRetainRaw.String(),
		"-wal-fsync", "interval",
		"-cluster-secret", clusterSecret)
	f := &fleet{endpoints: []*daemon{d}, dataDirs: []string{archive.dataDir}}
	a.front = d
	held := uint64(archive.points)
	boot, err := e.boot(f, func(body []byte) bool {
		var st endpointStatus
		return json.Unmarshal(body, &st) == nil && st.Stats.Accepted == held
	})
	if err != nil {
		return nil, err
	}
	// The daemon's checkpoint ticker started when it began to serve: the
	// loops' clock starts there too, so the window always holds the same
	// checkpoints at the same offsets.
	t0 := time.Now()
	buildS := newSample(archive.ingestSlices).p50()*agedSlices + archive.checkpointS + archive.tailS + scheduleS
	if err := e.recordSetup(res, buildS+boot.Seconds(), boot.Seconds(), archive.dataDir); err != nil {
		return nil, err
	}

	e.logf("%s: warm-up %v, window %v, a checkpoint every %v", name, warm, e.window, saveEvery)
	readDue := func(i int) time.Duration { return a.reads[i].Due }
	writeDue := func(i int) time.Duration { return a.writes[i].Due }
	var readOut, writeOut []openOutcome
	var before, after counters
	var beforeErr, afterErr error
	var wg sync.WaitGroup
	wg.Add(3)
	go func() {
		defer wg.Done()
		client := newConnClient()
		readOut = runOpenLoop(len(a.reads), t0, readDue, func(i int) error { return a.doRead(client, i) }, time.Now, time.Sleep)
	}()
	go func() {
		defer wg.Done()
		client := newConnClient()
		writeOut = runOpenLoop(len(a.writes), t0, writeDue, func(i int) error { return a.doWrite(client, i) }, time.Now, time.Sleep)
	}()
	go func() {
		defer wg.Done()
		time.Sleep(time.Until(t0.Add(warm)))
		before, beforeErr = e.readCounters(f)
		time.Sleep(time.Until(t0.Add(total)))
		after, afterErr = e.readCounters(f)
	}()
	wg.Wait()
	if beforeErr != nil {
		return nil, beforeErr
	}
	if afterErr != nil {
		return nil, afterErr
	}
	dl := deltas(f, before, after)

	ackLat, ackLag, ackIdx, ackFailed, ackErr := inWindow(writeOut, writeDue, warm, total)
	readLat, readLag, readIdx, readFailed, readErr := inWindow(readOut, readDue, warm, total)
	res.Attempted = len(ackLat) + ackFailed + len(readLat) + readFailed
	res.Failed = ackFailed + readFailed
	if ackErr != nil {
		res.problem("window: %d writes failed, first: %v", ackFailed, ackErr)
	}
	if readErr != nil {
		res.problem("window: %d reads failed or answered wrongly, first: %v", readFailed, readErr)
	}
	for i, o := range writeOut {
		if o.err != nil && writeDue(i) < warm {
			res.problem("warm-up: write %d failed: %v", i, o.err)
			break
		}
	}
	if len(ackLat) == 0 || len(readLat) == 0 {
		return nil, fmt.Errorf("%s: nothing succeeded in the window (writes: %v, reads: %v)", name, ackErr, readErr)
	}

	// Completion times, relative to the window's start, for the slices.
	done := func(idx []int, lat []float64, due func(int) time.Duration) []timed {
		out := make([]timed, len(idx))
		for j, i := range idx {
			out[j] = timed{at: (due(i) - warm).Seconds() + lat[j]/1e3, ms: lat[j]}
		}
		return out
	}
	ackDone, readDone := done(ackIdx, ackLat, writeDue), done(readIdx, readLat, readDue)
	slices := wholeSlices(e.window)
	acks, reads := newSample(ackLat), newSample(readLat)
	accepted := float64(len(ackLat))
	a50, an := bestMedian(ackDone, sliceWidth, slices)
	q50, qn := bestMedian(readDone, sliceWidth, slices)
	// An open loop's rate is offered, not achieved: it reads the schedule's
	// unless requests fail.
	res.set("packets_per_s", accepted/e.window.Seconds())
	res.setTiming("ack_ms_p50", a50, an)
	res.setTiming("loadgen.query_ms_p50", q50, qn)
	res.setTiming("loadgen.ack_ms_p99", acks.pct(99), acks.n())
	res.setTiming("loadgen.query_ms_p99", reads.pct(99), reads.n())
	res.set("loadgen.window_packets_per_s", accepted/e.window.Seconds())
	res.set("server.cpu_us_per_packet", micros(dl.endpointCPU)/accepted)
	res.set("endpointd.cpu_us_per_packet", micros(dl.endpointCPU)/accepted)
	res.set("loadgen.window_s", dl.seconds)
	res.set("loadgen.failed_share", float64(res.Failed)/float64(res.Attempted))
	res.set("loadgen.lag_ms_p99", newSample(append(ackLag, readLag...)).pct(99))
	recordHost(res, dl)
	byKind := map[readKind][]float64{}
	for j, i := range readIdx {
		byKind[a.reads[i].Kind] = append(byKind[a.reads[i].Kind], readLat[j])
	}
	for kind, lat := range byKind {
		s := newSample(lat)
		res.setTiming("loadgen."+kind.String()+"_ms_p50", s.p50(), s.n())
	}

	ep := dl.endpoints
	if n := ep["query_requests_total"]; n > 0 {
		res.set("query.daily_buckets_per_request", ep["query_tier_daily_buckets_total"]/n)
		res.set("query.hourly_buckets_per_request", ep["query_tier_hourly_buckets_total"]/n)
		res.set("query.raw_points_per_request", ep["query_tier_raw_points_total"]/n)
	}
	res.set("query.seconds_mean", ep.histMean("query_seconds"))
	res.set("cloud.ingest_ms_mean", ep.histMean("cloud_ingest_seconds")*1e3)
	res.set("cloud.accepted_share", acceptedShare(ep))
	res.set("cloud.shed_total", float64(after.status[0].Shed-before.status[0].Shed))
	if acc := ep["cloud_ingest_accepted_total"]; acc > 0 {
		res.set("tsdb.fsyncs_per_packet", ep["tsdb_wal_fsyncs_total"]/acc)
	}

	hwm, err := peakRSS(d.pid())
	if err != nil {
		return nil, err
	}
	res.set("server.rss_mb_peak", float64(hwm)/(1<<20))
	ackedTotal := 0
	for _, n := range a.ackedBy {
		ackedTotal += n
	}
	held += uint64(ackedTotal)
	res.set("endpointd.rss_bytes_per_packet", float64(hwm)/float64(held))
	disk, err := dirBytes(filepath.Dir(archive.dataDir))
	if err != nil {
		return nil, err
	}
	res.set("disk_bytes_per_packet", float64(disk)/float64(held))

	// Correctness: the server holds everything ever acknowledged (the
	// open loops never pause, so the counter readings only bracket the
	// window and a per-window equality would be a race), and every
	// compared /query answer matched the reference, at the latest on
	// being re-asked.
	var st endpointStatus
	if err := getJSON(e.admin, d.url+"/status", &st); err != nil {
		return nil, err
	}
	if st.Stats.Accepted != held {
		res.problem("/status reports %d accepted, archive plus acknowledged writes is %d", st.Stats.Accepted, held)
	}
	res.set("loadgen.transient_read_anomalies", float64(a.recheck()))
	if a.compared == 0 {
		res.problem("no /query answer was compared with the reference")
	}
	if n := int(ep["query_tier_daily_buckets_total"]); n == 0 {
		res.problem("no /query was served from the daily tier: the archive is not being read through its rollups")
	}

	// endpointd listens only once the snapshot is loaded and the WAL
	// replayed, so its first 200 is the end of recovery. What it holds is
	// then checked device by device. Its accepted counter is allowed to
	// read short: WriteSnapshot copies the counters before it copies the
	// series, so packets acknowledged in between are in the snapshot's
	// readings but not in its count, and replay rightly skips them as
	// already held. That is a counter the server under-reports after a
	// crash, not a reading it lost.
	recovery, err := e.crashAndRecover(f, func(int, endpointStatus) bool { return true })
	if err != nil {
		return nil, err
	}
	res.set("loadgen.recovery_s", recovery.Seconds())
	if err := getJSON(e.admin, d.url+"/status", &st); err != nil {
		return nil, err
	}
	if st.Stats.Accepted > held || st.Stats.Accepted+agedWritesPerS < held {
		res.problem("after SIGKILL and restart /status reports %d accepted, %d were acknowledged", st.Stats.Accepted, held)
	}
	res.set("cloud.accepted_undercount_after_crash", float64(held-st.Stats.Accepted))
	a.verifyTotals()

	f.killAll()
	res.Correct = len(res.Problems) == 0
	return res, nil
}

// tailSampleDevices of the recent fleet are checked for loss after the
// restart, beside all of the aged devices.
const tailSampleDevices = 64

// verifyTotals asks /query for whole-history weekly counts — which span
// the rollup tiers and the raw tail alike — and requires each device to
// hold exactly the readings it was acknowledged for.
func (a *agedRun) verifyTotals() {
	count := func(dev lpwan.EUI64) (uint64, error) {
		var qa queryAnswer
		url := fmt.Sprintf("%s/query?device=%s&step=%d&from=0", a.front.url, dev, int64(week/time.Second))
		if err := getJSON(a.e.admin, url, &qa); err != nil {
			return 0, err
		}
		var n uint64
		for _, w := range qa.Windows {
			n += w.Count
		}
		return n, nil
	}
	for d := 0; d < agedDevices; d++ {
		got, err := count(agedDevice(d))
		want := uint64(a.archive.hours + a.ackedBy[d])
		if err != nil {
			a.res.problem("after SIGKILL and restart: %v", err)
		} else if got != want {
			a.res.problem("after SIGKILL and restart: %v holds %d readings, %d were acknowledged", agedDevice(d), got, want)
		}
	}
	step := tailDevices / tailSampleDevices
	for i := 0; i < tailSampleDevices; i++ {
		d := i * step
		want := uint64(tailRecords / tailDevices)
		if d < tailRecords%tailDevices {
			want++
		}
		got, err := count(tailDevice(d))
		if err != nil {
			a.res.problem("after SIGKILL and restart: %v", err)
		} else if got != want {
			a.res.problem("after SIGKILL and restart: %v holds %d readings, %d were in the WAL tail", tailDevice(d), got, want)
		}
	}
}
