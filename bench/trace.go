package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"centuryscale/internal/batch"
	"centuryscale/internal/cloud"
	"centuryscale/internal/cluster"
	"centuryscale/internal/core"
	daemonpkg "centuryscale/internal/daemon"
	"centuryscale/internal/gateway"
	"centuryscale/internal/lpwan"
	"centuryscale/internal/obs"
	"centuryscale/internal/resilience"
	"centuryscale/internal/telemetry"
	"centuryscale/internal/tsdb"
)

// The traced run. One process, one goroutine driving, no daemons; the
// same seed gives the same bytes the untraced run sent. Each path is
// peeled from the outside: successively deeper public entry points are
// called on the same inputs, each pass on a fresh store opened with the
// workload's options, and every call is recorded as a span. A layer's
// self time is its span minus the spans it encloses, so along one path
// the self times sum, by construction, to the outermost span. Spans
// inside the daemons themselves are a later change (ROADMAP item 3).

// span is one recorded call: which layer boundary, when, caused by what,
// for which frame or request.
type span struct {
	Name   string `json:"name"`
	Parent string `json:"parent,omitempty"`
	ID     int    `json:"id"`
	Start  int64  `json:"start_ns"` // since the recorder was made
	End    int64  `json:"end_ns"`
}

// recorder keeps spans in memory until the run ends. Totals per name are
// kept whether or not span recording is on, so the outermost pass can be
// run both ways and the difference reported as the tracing overhead.
type recorder struct {
	t0      time.Time
	spansOn bool
	// warm: calls with an id below it are made but not recorded. Every
	// pass starts on a fresh store, and the first frames pay for first
	// contact with each device (verifier, replay window, series); the
	// daemons pay that once in a lifetime.
	warm int

	mu     sync.Mutex // replica handlers record from server goroutines
	spans  []span
	totals map[string]time.Duration
}

func newRecorder() *recorder {
	return &recorder{t0: time.Now(), spansOn: true, totals: make(map[string]time.Duration)}
}

func (r *recorder) record(name, parent string, id int, start, end time.Time) {
	if id < r.warm {
		return
	}
	r.mu.Lock()
	r.totals[name] += end.Sub(start)
	if r.spansOn {
		r.spans = append(r.spans, span{Name: name, Parent: parent, ID: id, Start: int64(start.Sub(r.t0)), End: int64(end.Sub(r.t0))})
	}
	r.mu.Unlock()
}

// time runs f as one span.
func (r *recorder) time(name, parent string, id int, f func()) {
	start := time.Now()
	f()
	r.record(name, parent, id, start, time.Now())
}

func (r *recorder) total(name string) time.Duration {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.totals[name]
}

// selfTotals computes, per span name, the summed self time: for every
// span, its duration minus the durations of the spans with the same id
// that name it as parent. Children that run side by side (the replicas
// of one frame) block the parent only for as long as the slowest, so
// parallel lists the parents whose children count by their maximum.
func selfTotals(spans []span, parallel map[string]bool) map[string]time.Duration {
	type key struct {
		name string
		id   int
	}
	childSum := make(map[key]time.Duration)
	childMax := make(map[key]time.Duration)
	for _, s := range spans {
		if s.Parent == "" {
			continue
		}
		k := key{s.Parent, s.ID}
		d := time.Duration(s.End - s.Start)
		childSum[k] += d
		if d > childMax[k] {
			childMax[k] = d
		}
	}
	out := make(map[string]time.Duration)
	for _, s := range spans {
		k := key{s.Name, s.ID}
		self := time.Duration(s.End - s.Start)
		if parallel[s.Name] {
			self -= childMax[k]
		} else {
			self -= childSum[k]
		}
		out[s.Name] += self
	}
	return out
}

// writeTrace writes the spans of one path to out/trace-<workload>.json.
func (e *env) writeTrace(workload string, paths map[string][]span) error {
	b, err := json.Marshal(struct {
		Workload string            `json:"workload"`
		Seed     uint64            `json:"seed"`
		Paths    map[string][]span `json:"paths"`
	}{workload, e.seed, paths})
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(e.outDir, "trace-"+workload+".json"), append(b, '\n'), 0o644)
}

// traced dispatches the traced run of one workload's path and folds its
// numbers into the untraced run's result.
func (e *env) traced(name string, res *runResult) error {
	e.logf("%s: traced run", name)
	paths := make(map[string][]span)
	var err error
	switch name {
	case "frames_cpu":
		if err = e.traceFrames(res, paths, tsdb.SyncInterval); err == nil {
			err = e.traceEdge(res, paths)
		}
		if err == nil {
			traceSim(res)
		}
	case "frames_durable":
		err = e.traceFrames(res, paths, tsdb.SyncAlways)
	case "cluster_frames":
		err = e.traceCluster(res, paths)
	case "aged_mixed":
		if err = e.traceSingle(res, paths); err == nil {
			err = e.traceAged(res, paths)
		}
	}
	if err != nil {
		return err
	}
	return e.writeTrace(name, paths)
}

// traceFrameCount frames go through every pass of the frame paths, the
// first traceWarmFrames of them unrecorded. Frames that wait for 16
// fsyncs each get a shorter run.
const (
	traceFrameCount        = 1000
	traceFrameCountDurable = 300
	traceWarmFrames        = 100
)

// traceFramesOf seals the frames the traced passes send: the first of
// connection 0's pool, the same bytes the untraced run began with.
func traceFramesOf(seed uint64, n int) (*framePool, error) {
	b := newPoolBuilder(seed, 0, n)
	if err := b.build(n); err != nil {
		return nil, err
	}
	return b.pool, nil
}

// freshStore opens an empty store the way endpointd does for the
// workload: 16 shards on the real disk, the workload's fsync policy,
// metrics registered. rollups arms the tiers as -retain-raw does.
func (e *env) freshStore(policy tsdb.SyncPolicy, rollups bool) (*cloud.Store, *cloud.Server, func(), error) {
	dir, err := os.MkdirTemp(e.work, "trace-store-")
	if err != nil {
		return nil, nil, nil, err
	}
	var store *cloud.Store
	if rollups {
		store, err = openAgedStore(dir, policy)
	} else {
		var db *tsdb.DB
		if db, err = tsdb.Open(tsdb.Options{Dir: dir, Shards: 16, Sync: policy}); err == nil {
			store = cloud.NewStoreWithDB(cloud.StaticKeys([]byte(fleetMaster)), db)
		}
	}
	if err != nil {
		os.RemoveAll(dir)
		return nil, nil, nil, err
	}
	server := cloud.NewServer(store, time.Now())
	server.SetIngestLimit(256)
	server.SetClusterSecret(clusterSecret)
	reg := obs.NewRegistry()
	store.RegisterMetrics(reg, nil)
	store.DB().RegisterMetrics(reg)
	server.RegisterQueryMetrics(reg, nil)
	return store, server, func() {
		store.Close()
		os.RemoveAll(dir)
	}, nil
}

// serveLoopback serves h on an ephemeral 127.0.0.1 port.
func serveLoopback(h http.Handler) (url string, stop func(), err error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", nil, err
	}
	srv := &http.Server{Handler: h}
	done := make(chan struct{})
	go func() {
		srv.Serve(ln)
		close(done)
	}()
	return "http://" + ln.Addr().String(), func() {
		srv.Close()
		<-done
	}, nil
}

// mallocs is the process's cumulative heap allocation count.
func mallocs() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.Mallocs
}

// Span names of the frame path, outermost first.
const (
	spSend        = "daemon.HTTPUplink.Send"
	spServe       = "cloud.Server.ServeHTTP"
	spIngestBatch = "cloud.Store.IngestBatch"
	spSplit       = "batch.Split"
	spParse       = "telemetry.Parse"
	spVerify      = "telemetry.Verifier.Verify"
	spGuard       = "telemetry.ReplayGuard"
	spAppendBatch = "tsdb.DB.AppendBatch"
)

// sender is the outermost layer of a path: HTTPUplink.Send to a
// loopback http.Server over a handler.
type sender struct {
	up   *daemonpkg.HTTPUplink
	stop func()
}

func newSender(h http.Handler) (*sender, error) {
	url, stop, err := serveLoopback(h)
	if err != nil {
		return nil, err
	}
	return &sender{up: &daemonpkg.HTTPUplink{URL: url}, stop: stop}, nil
}

func (s *sender) send(rec *recorder, id int, payload []byte) error {
	var err error
	rec.time(spSend, "", id, func() { err = s.up.Send(payload) })
	return err
}

// serveDirect calls Server.ServeHTTP directly. Building the request is
// the harness's work and stays outside the span.
func serveDirect(rec *recorder, server http.Handler, route string, id int, payload []byte) error {
	req := httptest.NewRequest("POST", route, bytes.NewReader(payload))
	w := httptest.NewRecorder()
	rec.time(spServe, spSend, id, func() { server.ServeHTTP(w, req) })
	if w.Code != http.StatusAccepted {
		return fmt.Errorf("%s answered %d: %s", route, w.Code, firstLine(w.Body.Bytes()))
	}
	return nil
}

// layers is the three outer layers of an ingest path, each on a fresh
// store of its own: the loopback hop, the handler, the store.
type layers struct {
	snd   *sender
	serve *cloud.Server
	store *cloud.Store
	close func()
}

func (e *env) ingestLayers(policy tsdb.SyncPolicy, rollups bool) (*layers, error) {
	var closers []func()
	closeAll := func() {
		for i := len(closers) - 1; i >= 0; i-- {
			closers[i]()
		}
	}
	l := &layers{close: closeAll}
	_, sendServer, closeStore, err := e.freshStore(policy, rollups)
	if err != nil {
		return nil, err
	}
	closers = append(closers, closeStore)
	if l.snd, err = newSender(sendServer); err != nil {
		closeAll()
		return nil, err
	}
	closers = append(closers, l.snd.stop)
	if _, l.serve, closeStore, err = e.freshStore(policy, rollups); err != nil {
		closeAll()
		return nil, err
	}
	closers = append(closers, closeStore)
	if l.store, _, closeStore, err = e.freshStore(policy, rollups); err != nil {
		closeAll()
		return nil, err
	}
	closers = append(closers, closeStore)
	return l, nil
}

func poolFrames(p *framePool) [][]byte {
	out := make([][]byte, p.n)
	for i := range out {
		out[i] = p.frame(i)
	}
	return out
}

// allocFrames is how many of the last frames have their allocations
// counted: reading the allocator's statistics stops the world, so it is
// done around few calls and outside every span.
const allocFrames = 50

// traceFrames peels the frame path: Send → ServeHTTP → IngestBatch →
// {Split, Parse, Verify, ReplayGuard, AppendBatch}. Each layer has a
// fresh store of its own, and the layers take turns frame by frame, so
// that every frame's spans are taken within milliseconds of one another
// and drift in the host or in the stores' size cancels out of the self
// times instead of landing in one of them.
func (e *env) traceFrames(res *runResult, paths map[string][]span, policy tsdb.SyncPolicy) error {
	count := traceFrameCount
	if policy == tsdb.SyncAlways {
		count = traceFrameCountDurable
	}
	pool, err := traceFramesOf(e.seed, count)
	if err != nil {
		return err
	}
	frames := poolFrames(pool)
	packets := float64((len(frames) - traceWarmFrames) * framePackets)
	perPacket := func(d time.Duration) float64 { return float64(d) / packets }
	rec := newRecorder()
	rec.warm = traceWarmFrames

	overhead, err := e.recordingOverhead(policy, frames)
	if err != nil {
		return err
	}
	res.set("trace.overhead_share", overhead)

	l, err := e.ingestLayers(policy, false)
	if err != nil {
		return err
	}
	defer l.close()

	// The calls IngestBatch makes. Verifiers are cached per device across
	// frames, as its pooled scratch does; the guards and the group
	// commits are per storage shard.
	const shards = 16
	verifiers := make(map[lpwan.EUI64]*telemetry.Verifier)
	guards := make([]*telemetry.ReplayGuard, shards)
	for i := range guards {
		guards[i] = telemetry.NewReplayGuard(16)
	}
	dbs := make(map[tsdb.SyncPolicy]*tsdb.DB)
	for _, p := range []tsdb.SyncPolicy{policy, tsdb.SyncNever} {
		dir, err := os.MkdirTemp(e.work, "trace-tsdb-")
		if err != nil {
			return err
		}
		defer os.RemoveAll(dir)
		db, err := tsdb.Open(tsdb.Options{Dir: dir, Shards: shards, Sync: p})
		if err != nil {
			return err
		}
		defer db.Close()
		dbs[p] = db
	}
	wires := make([][]byte, 0, framePackets)
	pkts := make([]telemetry.Packet, 0, framePackets)
	groups := make([][]tsdb.Point, shards)
	var allocs uint64
	began := time.Now()

	for i, f := range frames {
		if err := l.snd.send(rec, i, f); err != nil {
			return fmt.Errorf("frame %d: %w", i, err)
		}
		if err := serveDirect(rec, l.serve, "/ingest/batch", i, f); err != nil {
			return fmt.Errorf("frame %d: %w", i, err)
		}

		countAllocs := i >= len(frames)-allocFrames
		var before uint64
		if countAllocs {
			before = mallocs()
		}
		var r cloud.BatchResult
		var failed error
		at := time.Since(began)
		rec.time(spIngestBatch, spServe, i, func() { r, failed = l.store.IngestBatch(at, f) })
		if countAllocs {
			allocs += mallocs() - before
		}
		if failed != nil || r.Accepted != framePackets {
			return fmt.Errorf("frame %d: IngestBatch accepted %d: %v", i, r.Accepted, failed)
		}

		wires, pkts = wires[:0], pkts[:0]
		rec.time(spSplit, spIngestBatch, i, func() {
			payload, n, err := batch.Split(f, 0)
			if err != nil {
				failed = err
				return
			}
			for j := 0; j < n; j++ {
				wires = append(wires, batch.Packet(payload, j))
			}
		})
		rec.time(spParse, spIngestBatch, i, func() {
			for _, w := range wires {
				p, err := telemetry.Parse(w)
				if err != nil {
					failed = err
				}
				pkts = append(pkts, p)
			}
		})
		rec.time(spVerify, spIngestBatch, i, func() {
			for j, w := range wires {
				ver := verifiers[pkts[j].Device]
				if ver == nil {
					ver, _ = telemetry.NewVerifier(telemetry.DeriveKey([]byte(fleetMaster), pkts[j].Device))
					verifiers[pkts[j].Device] = ver
				}
				if _, err := ver.Verify(w); err != nil {
					failed = err
				}
			}
		})
		rec.time(spGuard, spIngestBatch, i, func() {
			for _, p := range pkts {
				g := guards[tsdb.ShardIndex(p.Device, shards)]
				if err := g.Fresh(p); err != nil {
					failed = err
				}
				if err := g.Admit(p); err != nil {
					failed = err
				}
			}
		})
		for s := range groups {
			groups[s] = groups[s][:0]
		}
		for _, p := range pkts {
			s := tsdb.ShardIndex(p.Device, shards)
			groups[s] = append(groups[s], tsdb.Point{Device: p.Device, At: at, Seq: p.Seq, Sensor: uint8(p.Sensor), Value: p.Value, Uptime: p.UptimeSeconds})
		}
		appendAll := func(db *tsdb.DB) {
			for _, g := range groups {
				if len(g) == 0 {
					continue
				}
				if err := db.AppendBatch(g); err != nil {
					failed = err
				}
			}
		}
		rec.time(spAppendBatch, spIngestBatch, i, func() { appendAll(dbs[policy]) })
		if policy != tsdb.SyncNever {
			rec.time(spAppendBatch+"(never)", "", i, func() { appendAll(dbs[tsdb.SyncNever]) })
		}
		if failed != nil {
			return fmt.Errorf("frame %d: %w", i, failed)
		}
	}
	res.set("cloud.ingest_allocs_per_packet", float64(allocs)/(allocFrames*framePackets))

	self := selfTotals(onPath(rec.spans), nil)
	res.set("daemon.loopback_ns_per_packet", perPacket(self[spSend]))
	res.set("cloud.http_ns_per_packet", perPacket(self[spServe]))
	res.set("cloud.ingest_self_ns_per_packet", perPacket(self[spIngestBatch]))
	res.set("batch.split_ns_per_packet", perPacket(self[spSplit]))
	res.set("telemetry.parse_ns_per_packet", perPacket(self[spParse]))
	res.set("telemetry.verify_ns_per_packet", perPacket(self[spVerify]))
	res.set("telemetry.guard_ns_per_packet", perPacket(self[spGuard]))
	never := rec.total(spAppendBatch + "(never)")
	if policy == tsdb.SyncNever {
		never = rec.total(spAppendBatch)
	}
	res.set("tsdb.append_ns_per_packet", perPacket(never))
	res.set("tsdb.fsync_ns_per_packet", perPacket(rec.total(spAppendBatch)-never))
	// Closure: what the trace says the server spends per packet — the
	// handler, and the server's half of the HTTP hop — against what
	// /proc said the daemon burned in the untraced window. Runtime and GC
	// threads are in the denominator only.
	serverNs := perPacket(rec.total(spServe) + self[spSend]/2)
	if cpu := res.Values["server.cpu_us_per_packet"]; cpu > 0 {
		res.set("trace.cpu_closure", serverNs/1e3/cpu)
	}
	paths["frames"] = rec.spans
	return nil
}

// recordingOverhead is the outermost pass with span recording on versus
// off. The two alternate frame by frame on one store, so that drift
// cancels instead of posing as overhead.
func (e *env) recordingOverhead(policy tsdb.SyncPolicy, frames [][]byte) (float64, error) {
	_, server, closeStore, err := e.freshStore(policy, false)
	if err != nil {
		return 0, err
	}
	defer closeStore()
	snd, err := newSender(server)
	if err != nil {
		return 0, err
	}
	defer snd.stop()
	on := newRecorder()
	var offTotal, onTotal time.Duration
	for i, f := range frames {
		var sendErr error
		start := time.Now()
		if i%2 == 0 {
			sendErr = snd.up.Send(f)
		} else {
			sendErr = snd.send(on, i, f)
		}
		took := time.Since(start)
		if sendErr != nil {
			return 0, fmt.Errorf("frame %d: %w", i, sendErr)
		}
		switch {
		case i < traceWarmFrames:
		case i%2 == 0:
			offTotal += took
		default:
			onTotal += took
		}
	}
	return float64(onTotal-offTotal) / float64(offTotal), nil
}

// onPath drops the comparison-only spans (the SyncNever append twin),
// which have no parent and are not the root.
func onPath(spans []span) []span {
	out := make([]span, 0, len(spans))
	for _, s := range spans {
		if s.Parent != "" || s.Name == spSend {
			out = append(out, s)
		}
	}
	return out
}

// Span names of the single-packet path.
const (
	spIngest         = "cloud.Store.Ingest"
	spVerifyOne      = "telemetry.Verify"
	spAppend         = "tsdb.DB.Append"
	traceSingles     = 4000
	traceWarmSingles = 400
	allocSingles     = 200
)

// traceSingle peels the single-packet route: Send → ServeHTTP → Ingest →
// {Verify, ReplayGuard, Append}, on stores opened as aged_mixed's
// endpointd is (rollups armed, -wal-fsync=interval), the layers taking
// turns packet by packet.
func (e *env) traceSingle(res *runResult, paths map[string][]span) error {
	pool, err := traceFramesOf(e.seed, (traceSingles+framePackets-1)/framePackets)
	if err != nil {
		return err
	}
	var wires [][]byte
	for f := 0; f < pool.n && len(wires) < traceSingles; f++ {
		payload := pool.frame(f)[batch.HeaderSize:]
		for j := 0; j < framePackets && len(wires) < traceSingles; j++ {
			wires = append(wires, batch.Packet(payload, j))
		}
	}
	n := float64(len(wires) - traceWarmSingles)
	rec := newRecorder()
	rec.warm = traceWarmSingles
	const policy = tsdb.SyncInterval

	l, err := e.ingestLayers(policy, true)
	if err != nil {
		return err
	}
	defer l.close()
	dir, err := os.MkdirTemp(e.work, "trace-tsdb-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	db, err := tsdb.Open(tsdb.Options{Dir: dir, Shards: 16, Sync: policy})
	if err != nil {
		return err
	}
	defer db.Close()
	guard := telemetry.NewReplayGuard(16)
	var allocs uint64
	began := time.Now()

	for i, w := range wires {
		if err := l.snd.send(rec, i, w); err != nil {
			return fmt.Errorf("packet %d: %w", i, err)
		}
		if err := serveDirect(rec, l.serve, "/ingest", i, w); err != nil {
			return fmt.Errorf("packet %d: %w", i, err)
		}
		countAllocs := i >= len(wires)-allocSingles
		var before uint64
		if countAllocs {
			before = mallocs()
		}
		var failed error
		at := time.Since(began)
		rec.time(spIngest, spServe, i, func() { failed = l.store.Ingest(at, w) })
		if countAllocs {
			allocs += mallocs() - before
		}
		if failed != nil {
			return fmt.Errorf("packet %d: Ingest: %w", i, failed)
		}

		var p telemetry.Packet
		key := telemetry.DeriveKey([]byte(fleetMaster), lpwan.EUI64(w[:8]))
		rec.time(spVerifyOne, spIngest, i, func() { p, failed = telemetry.Verify(w, key) })
		rec.time(spGuard, spIngest, i, func() {
			if err := guard.Fresh(p); err != nil {
				failed = err
			}
			if err := guard.Admit(p); err != nil {
				failed = err
			}
		})
		rec.time(spAppend, spIngest, i, func() {
			pt := tsdb.Point{Device: p.Device, At: at, Seq: p.Seq, Sensor: uint8(p.Sensor), Value: p.Value, Uptime: p.UptimeSeconds}
			if err := db.Append(pt); err != nil {
				failed = err
			}
		})
		if failed != nil {
			return fmt.Errorf("packet %d: %w", i, failed)
		}
	}
	res.set("cloud.ingest_single_allocs", float64(allocs)/allocSingles)

	self := selfTotals(rec.spans, nil)
	res.set("daemon.loopback_single_ns", float64(self[spSend])/n)
	res.set("cloud.http_single_ns", float64(self[spServe])/n)
	res.set("cloud.ingest_single_ns", float64(self[spIngest])/n)
	res.set("telemetry.verify_ns_per_packet", float64(self[spVerifyOne])/n)
	res.set("telemetry.guard_ns_per_packet", float64(self[spGuard])/n)
	res.set("tsdb.append_ns_per_packet", float64(self[spAppend])/n)
	paths["single"] = rec.spans
	return nil
}

// Span names of the read and checkpoint paths.
const (
	spQueryServe = "cloud.Server.ServeHTTP(/query)"
	spWindows    = "query.Engine.Windows"
	spSeriesView = "rollup.Engine.SeriesView"
	spRangeSlice = "tsdb.DB.RangeSlice"
	spTopGaps    = "query.Engine.TopGaps"
	spLoadFile   = "cloud.Store.LoadFile"
	spReplayWAL  = "cloud.Store.ReplayWAL"
	spCheckpoint = "cloud.Store.CheckpointAt"
	spEncode     = "cloud.Store.WriteSnapshot"
	spDrain      = "tsdb.DB.DrainBelow"
	spFold       = "rollup.Engine.Fold"
	// traceReadReps whole-history weekly queries per aged device.
	traceReadReps = 10
	// traceAdvanceHours of new readings per aged device move the data
	// clock before each fold, about what one checkpoint interval of the
	// untraced window does.
	traceAdvanceHours = 100
)

type countingWriter struct{ n int64 }

func (c *countingWriter) Write(p []byte) (int, error) {
	c.n += int64(len(p))
	return len(p), nil
}

// traceAged loads an aged archive in process and peels the read path
// (ServeHTTP → Windows → {SeriesView, RangeSlice}), the recovery path
// (LoadFile, ReplayWAL) and the checkpoint path (CheckpointAt,
// WriteSnapshot, DrainBelow + Fold).
func (e *env) traceAged(res *runResult, paths map[string][]span) error {
	dir, err := os.MkdirTemp(e.work, "trace-aged-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	archive, err := buildAged(dir, e.seed, agedHours)
	if err != nil {
		return err
	}
	rec := newRecorder()

	// Recovery: what endpointd does at boot.
	store, err := openAgedStore(archive.dataDir, tsdb.SyncInterval)
	if err != nil {
		return err
	}
	defer store.Close()
	var failed error
	rec.time(spLoadFile, "", 0, func() { failed = store.LoadFile(archive.snapshot) })
	if failed != nil {
		return failed
	}
	var replay tsdb.ReplayStats
	rec.time(spReplayWAL, "", 0, func() { replay, failed = store.ReplayWAL() })
	if failed != nil {
		return failed
	}
	if replay.Kept != tailRecords {
		return fmt.Errorf("ReplayWAL kept %d records, the WAL tail holds %d", replay.Kept, tailRecords)
	}
	res.set("cloud.snapshot_load_s", rec.total(spLoadFile).Seconds())
	res.set("tsdb.replay_ns_per_record", float64(rec.total(spReplayWAL))/float64(replay.Records))

	// Reads: whole-history weekly windows, each device in turn.
	server := cloud.NewServer(store, time.Now())
	eng := store.QueryEngine()
	horizon := store.HighWater() + 1
	var windows, buckets, rawPoints int
	id := 0
	for rep := 0; rep < traceReadReps; rep++ {
		for d := 0; d < agedDevices; d++ {
			dev := agedDevice(d)
			req := httptest.NewRequest("GET", fmt.Sprintf("/query?device=%s&step=%d&from=0", dev, int64(week/time.Second)), nil)
			w := httptest.NewRecorder()
			rec.time(spQueryServe, "", id, func() { server.ServeHTTP(w, req) })
			if w.Code != http.StatusOK {
				return fmt.Errorf("/query answered %d: %s", w.Code, firstLine(w.Body.Bytes()))
			}
			rec.time(spWindows, spQueryServe, id, func() {
				it, err := eng.Windows(dev, 0, horizon, week)
				if err != nil {
					failed = err
					return
				}
				for it.Next() {
					windows++
				}
				it.Close()
			})
			rec.time(spSeriesView, spWindows, id, func() {
				h, dd := store.Rollups().SeriesView(dev)
				buckets += len(h) + len(dd)
			})
			rec.time(spRangeSlice, spWindows, id, func() {
				pts, release := store.DB().RangeSlice(dev, store.Rollups().FoldedBefore(), horizon)
				rawPoints += len(pts)
				release()
			})
			if failed != nil {
				return failed
			}
			id++
		}
	}
	self := selfTotals(rec.spans, nil)
	res.set("cloud.query_http_ns_per_window", float64(self[spQueryServe])/float64(windows))
	res.set("query.windows_self_ns_per_window", float64(self[spWindows])/float64(windows))
	res.set("rollup.seriesview_ns_per_bucket", float64(self[spSeriesView])/float64(buckets))
	res.set("tsdb.range_ns_per_point", float64(self[spRangeSlice])/float64(rawPoints))
	rec.time(spTopGaps, "", 0, func() { eng.TopGaps(5, store.HighWater()) })
	res.set("query.topgaps_ms", float64(rec.total(spTopGaps))/float64(time.Millisecond))

	// Checkpoint: move the data clock as a checkpoint interval of writes
	// does, then checkpoint; move it again and take the fold apart.
	writes := writeSchedule(e.seed, 2*traceAdvanceHours*agedDevices, agedWritesPerS, agedHours)
	advance := func(ws []writeRequest) error {
		for _, w := range ws {
			if err := store.Ingest(w.Arrival, w.Wire); err != nil {
				return err
			}
		}
		return nil
	}
	if err := advance(writes[:len(writes)/2]); err != nil {
		return err
	}
	rec.time(spCheckpoint, "", 0, func() { failed = store.CheckpointAt(archive.snapshot, store.HighWater()) })
	if failed != nil {
		return failed
	}
	res.set("cloud.checkpoint_s", rec.total(spCheckpoint).Seconds())
	res.set("cloud.checkpoint_ms_per_device_year", float64(rec.total(spCheckpoint))/float64(time.Millisecond)/(agedDevices*agedYears))

	if err := advance(writes[len(writes)/2:]); err != nil {
		return err
	}
	wm := store.Rollups().Advance(store.HighWater() - agedRetainRaw)
	var drained []tsdb.DrainedSeries
	rec.time(spDrain, "", 0, func() { drained = store.DB().DrainBelow(wm) })
	points := 0
	for _, ds := range drained {
		points += len(ds.Points)
	}
	folded := 0
	rec.time(spFold, "", 0, func() { folded = store.Rollups().Fold(drained) })
	if points == 0 || folded != points {
		return fmt.Errorf("fold: drained %d points, folded %d", points, folded)
	}
	res.set("tsdb.drain_ns_per_point", float64(rec.total(spDrain))/float64(points))
	res.set("rollup.fold_ns_per_point", float64(rec.total(spFold))/float64(points))

	var cw countingWriter
	rec.time(spEncode, "", 0, func() { failed = store.WriteSnapshot(&cw) })
	if failed != nil {
		return failed
	}
	res.set("cloud.snapshot_encode_s", rec.total(spEncode).Seconds())
	res.set("cloud.snapshot_mb", float64(cw.n)/(1<<20))

	// Closure for this workload is per ingested packet too: the window's
	// CPU went to checkpoints, reads and single packets in the measured
	// proportions of the untraced run.
	if cpu := res.Values["server.cpu_us_per_packet"]; cpu > 0 {
		window := res.Seconds
		perWindow := float64(agedCheckpoints)*rec.total(spCheckpoint).Seconds() +
			window*agedReadsPerS*(float64(rec.total(spQueryServe))/float64(id))/1e9 +
			window*agedWritesPerS*(res.Values["cloud.ingest_single_ns"]+res.Values["cloud.http_single_ns"]+
				res.Values["telemetry.verify_ns_per_packet"]+res.Values["telemetry.guard_ns_per_packet"]+
				res.Values["tsdb.append_ns_per_packet"]+res.Values["daemon.loopback_single_ns"]/2)/1e9
		res.set("trace.cpu_closure", perWindow*1e6/(window*agedWritesPerS)/cpu)
	}
	paths["aged"] = rec.spans
	return nil
}

// Span names of the cluster path.
const (
	spCoordinator = "cluster.Coordinator.IngestBatch"
	spReplica     = "replica cloud.Server.ServeHTTP"
)

// replicaSet is three in-process endpoints behind loopback listeners,
// their handlers wrapped to record a span per sub-frame.
type replicaSet struct {
	urls  []string
	stops []func()
}

func (e *env) startReplicas(rec *recorder, parent string, frameID *atomic.Int64) (*replicaSet, error) {
	rs := &replicaSet{}
	for i := 0; i < 3; i++ {
		_, server, closeStore, err := e.freshStore(tsdb.SyncInterval, false)
		if err != nil {
			rs.stop()
			return nil, err
		}
		name := fmt.Sprintf("%s[%d]", spReplica, i)
		wrapped := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			start := time.Now()
			server.ServeHTTP(w, r)
			rec.record(name, parent, int(frameID.Load()), start, time.Now())
		})
		url, stop, err := serveLoopback(wrapped)
		if err != nil {
			closeStore()
			rs.stop()
			return nil, err
		}
		rs.urls = append(rs.urls, url)
		rs.stops = append(rs.stops, stop, closeStore)
	}
	return rs, nil
}

func (rs *replicaSet) stop() {
	for _, s := range rs.stops {
		s()
	}
}

func newCoordinator(urls []string) (*cluster.Coordinator, error) {
	return cluster.New(cluster.Config{Peers: urls, Replicas: 2, WriteQuorum: 2, Secret: clusterSecret})
}

// traceCluster peels the cluster path: Send → (router's handler)
// Coordinator.IngestBatch → the owning replicas' ServeHTTP, side by side.
// The two outer layers each have a coordinator and three fresh replicas
// of their own and take turns frame by frame.
func (e *env) traceCluster(res *runResult, paths map[string][]span) error {
	pool, err := traceFramesOf(e.seed, traceFrameCount)
	if err != nil {
		return err
	}
	frames := poolFrames(pool)
	packets := float64((len(frames) - traceWarmFrames) * framePackets)
	rec := newRecorder()
	rec.warm = traceWarmFrames
	var frameID atomic.Int64

	// The replicas behind the outermost layer record nothing: the inner
	// layer's replicas record the same work under their true parent.
	unrecorded := newRecorder()
	unrecorded.warm = len(frames)
	outerReplicas, err := e.startReplicas(unrecorded, "", &frameID)
	if err != nil {
		return err
	}
	defer outerReplicas.stop()
	outer, err := newCoordinator(outerReplicas.urls)
	if err != nil {
		return err
	}
	defer outer.Close(context.Background())
	snd, err := newSender(outer.Handler())
	if err != nil {
		return err
	}
	defer snd.stop()

	replicas, err := e.startReplicas(rec, spCoordinator, &frameID)
	if err != nil {
		return err
	}
	defer replicas.stop()
	coord, err := newCoordinator(replicas.urls)
	if err != nil {
		return err
	}
	defer coord.Close(context.Background())

	for i, f := range frames {
		frameID.Store(int64(i))
		if err := snd.send(rec, i, f); err != nil {
			return fmt.Errorf("frame %d: %w", i, err)
		}
		var ierr error
		rec.time(spCoordinator, spSend, i, func() { ierr = coord.IngestBatch(context.Background(), f) })
		if ierr != nil {
			return fmt.Errorf("frame %d: Coordinator.IngestBatch: %w", i, ierr)
		}
	}

	self := selfTotals(rec.spans, map[string]bool{spCoordinator: true})
	var replicaSum time.Duration
	for i := 0; i < 3; i++ {
		replicaSum += rec.total(fmt.Sprintf("%s[%d]", spReplica, i))
	}
	fanout := self[spCoordinator]
	res.set("daemon.loopback_ns_per_packet", float64(self[spSend])/packets)
	res.set("cluster.fanout_self_ns_per_packet", float64(fanout)/packets)
	res.set("cluster.replica_max_ns_per_packet", float64(rec.total(spCoordinator)-fanout)/packets)
	if cpu := res.Values["server.cpu_us_per_packet"]; cpu > 0 {
		// Every replica's handler time counts (CPU adds up across
		// processes even where wall clock overlaps), plus the router's own
		// work and its half of the gateway-facing hop.
		server := float64(replicaSum+fanout+self[spSend]/2) / packets
		res.set("trace.cpu_closure", server/1e3/cpu)
	}
	paths["cluster"] = rec.spans
	return nil
}

// Span names of the transmit-only edge.
const (
	spHandleFrame = "gateway.Gateway.HandleFrame"
	spUplinkSend  = "resilience.Uplink.Send"
	spNullSender  = "null Sender.Send"
	traceEdgeN    = 20 * framePackets
)

// traceEdge covers the sensornode→gatewayd edge, which has no ack to
// time and so no end-to-end workload: Gateway.HandleFrame over an
// Uplink{BatchSize: 256} over a null Sender.
func (e *env) traceEdge(res *runResult, paths map[string][]span) error {
	pool, err := traceFramesOf(e.seed, traceEdgeN/framePackets)
	if err != nil {
		return err
	}
	var link [][]byte
	for f := 0; f < pool.n; f++ {
		payload := pool.frame(f)[batch.HeaderSize:]
		for j := 0; j < framePackets; j++ {
			wire := batch.Packet(payload, j)
			enc, err := lpwan.Frame{Type: lpwan.FrameData, Source: lpwan.EUI64(wire[:8]), Seq: uint16(len(link)), Payload: wire}.Encode()
			if err != nil {
				return err
			}
			link = append(link, enc)
		}
	}
	rec := newRecorder()
	id := 0
	sent := 0
	null := resilience.SenderFunc(func(p []byte) error {
		rec.time(spNullSender, spUplinkSend, id, func() { sent += (len(p) - batch.HeaderSize) / batch.PacketSize })
		return nil
	})
	// BatchAge out of reach: every flush happens on this goroutine, when a
	// frame fills, never on the uplink's age ticker.
	up := resilience.NewUplink(null, resilience.Config{BatchSize: framePackets, BatchAge: time.Hour})
	gw := gateway.New(gateway.Config{ID: "bench"}, gateway.UplinkFunc(func(p []byte) error {
		var err error
		rec.time(spUplinkSend, spHandleFrame, id, func() { err = up.Send(p) })
		return err
	}))
	for i, f := range link {
		id = i
		var herr error
		rec.time(spHandleFrame, "", i, func() { herr = gw.HandleFrame(f) })
		if herr != nil {
			return fmt.Errorf("link frame %d: %w", i, herr)
		}
	}
	if err := up.Close(context.Background()); err != nil {
		return err
	}
	if sent != len(link) {
		return fmt.Errorf("edge: %d packets in, %d out of the uplink", len(link), sent)
	}
	self := selfTotals(rec.spans, nil)
	res.set("gateway.handle_self_ns_per_frame", float64(self[spHandleFrame])/float64(len(link)))
	res.set("resilience.uplink_self_ns_per_packet", float64(self[spUplinkSend])/float64(len(link)))
	paths["edge"] = rec.spans
	return nil
}

// traceSim runs the simulator's E10 owned-gateway experiment: it shares
// cloud.Store with the daemons, so a store change that slows the
// simulator shows here.
func traceSim(res *runResult) {
	start := time.Now()
	out := core.RunExperiment(core.DefaultExperiment(core.OwnedWPAN))
	res.set("sim.e10_packets_per_s", float64(out.PacketsSent)/time.Since(start).Seconds())
}
