package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"reflect"
	"runtime"
	"sort"
	"sync/atomic"
	"testing"
	"time"

	"centuryscale/internal/batch"
	"centuryscale/internal/cloud"
	"centuryscale/internal/httpapi"
	"centuryscale/internal/lpwan"
	"centuryscale/internal/obs"
	"centuryscale/internal/resilience"
	"centuryscale/internal/rollup"
	"centuryscale/internal/telemetry"
)

var master = []byte("fleet-master-secret")

const secret = "test-cluster-secret"

func sealed(t testing.TB, dev uint64, seq uint32, value float32) []byte {
	t.Helper()
	id := lpwan.EUIFromUint64(dev)
	wire, err := telemetry.Packet{
		Device: id, Seq: seq, Sensor: telemetry.SensorStrain, Value: value,
	}.Seal(telemetry.DeriveKey(master, id))
	if err != nil {
		t.Fatal(err)
	}
	return wire
}

// fakeClock is a hand-advanced obs.Clock.
type fakeClock struct{ nanos atomic.Int64 }

func (c *fakeClock) Now() time.Duration      { return time.Duration(c.nanos.Load()) }
func (c *fakeClock) Advance(d time.Duration) { c.nanos.Add(int64(d)) }

// node is one in-process endpoint: a cloud store behind an httptest
// server, armed with the cluster secret.
type node struct {
	store *cloud.Store
	srv   *httptest.Server
}

func newNode(t *testing.T) *node {
	t.Helper()
	store := cloud.NewStore(cloud.StaticKeys(master))
	server := cloud.NewServer(store, time.Now())
	server.SetClusterSecret(secret)
	srv := httptest.NewServer(server)
	t.Cleanup(srv.Close)
	return &node{store: store, srv: srv}
}

func newCluster(t *testing.T, n, r, w int, clock obs.Clock) ([]*node, *Coordinator) {
	t.Helper()
	nodes := make([]*node, n)
	urls := make([]string, n)
	for i := range nodes {
		nodes[i] = newNode(t)
		urls[i] = nodes[i].srv.URL
	}
	c, err := New(Config{
		Peers: urls, Replicas: r, WriteQuorum: w, Secret: secret,
		Clock:        clock,
		SuspectAfter: time.Second, DownAfter: 3 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), time.Second)
		defer cancel()
		_ = c.Close(ctx)
	})
	return nodes, c
}

// devOwnedBy finds a device whose preference list starts with the given
// owner sequence (prefix match on however many nodes are specified).
func devOwnedBy(t *testing.T, ring *Ring, rep int, prefix ...int) uint64 {
	t.Helper()
	for dev := uint64(1); dev < 100_000; dev++ {
		owners := ring.Owners(lpwan.EUIFromUint64(dev), rep)
		ok := len(prefix) <= len(owners)
		for i := range prefix {
			if !ok || owners[i] != prefix[i] {
				ok = false
				break
			}
		}
		if ok {
			return dev
		}
	}
	t.Fatalf("no device found with owner prefix %v", prefix)
	return 0
}

func TestRingDeterministicDistinctBalanced(t *testing.T) {
	r1 := NewRing(3, 0)
	r2 := NewRing(3, 0)
	counts := make([]int, 3)
	for dev := uint64(1); dev <= 3000; dev++ {
		id := lpwan.EUIFromUint64(dev)
		a, b := r1.Owners(id, 2), r2.Owners(id, 2)
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("rings disagree for device %d: %v vs %v", dev, a, b)
		}
		if len(a) != 2 || a[0] == a[1] {
			t.Fatalf("owners not distinct: %v", a)
		}
		counts[a[0]]++
	}
	for node, got := range counts {
		if got < 3000/3/2 {
			t.Fatalf("node %d owns only %d of 3000 primaries: %v", node, got, counts)
		}
	}
	// Replication clamps to the node count.
	if got := r1.Owners(lpwan.EUIFromUint64(1), 99); len(got) != 3 {
		t.Fatalf("over-replication not clamped: %v", got)
	}
}

func TestRingMinimalReshuffleOnGrowth(t *testing.T) {
	small, big := NewRing(3, 0), NewRing(4, 0)
	moved := 0
	const total = 3000
	for dev := uint64(1); dev <= total; dev++ {
		id := lpwan.EUIFromUint64(dev)
		if small.Owners(id, 1)[0] != big.Owners(id, 1)[0] {
			moved++
		}
	}
	// Consistent hashing moves ~1/4 of the keyspace when the fourth node
	// joins; a modulo hash would move ~3/4. Allow headroom.
	if moved > total*2/5 {
		t.Fatalf("adding one node moved %d of %d primaries", moved, total)
	}
}

func TestRingSegmentsCoverEveryDevice(t *testing.T) {
	r := NewRing(3, 0)
	segs := r.Segments(2)
	if len(segs) == 0 {
		t.Fatal("no segments")
	}
	asKey := func(owners []int) string {
		k := ""
		for _, o := range owners {
			k += string(rune('0' + o))
		}
		return k
	}
	known := make(map[string]bool)
	for _, seg := range segs {
		known[asKey(seg)] = true
	}
	for dev := uint64(1); dev <= 500; dev++ {
		owners := r.Owners(lpwan.EUIFromUint64(dev), 2)
		if !known[asKey(owners)] {
			t.Fatalf("device %d owners %v not in segment map %v", dev, owners, segs)
		}
	}
}

func TestDetectorDecayAndRecovery(t *testing.T) {
	clock := &fakeClock{}
	d := NewDetector(2, clock.Now, time.Second, 3*time.Second)
	if s := d.State(0); s != StateAlive {
		t.Fatalf("initial state = %v", s)
	}
	clock.Advance(1500 * time.Millisecond)
	if s := d.State(0); s != StateSuspect {
		t.Fatalf("after 1.5s silence = %v, want suspect", s)
	}
	clock.Advance(2 * time.Second)
	if s := d.State(0); s != StateDown {
		t.Fatalf("after 3.5s silence = %v, want down", s)
	}
	// Being heard resurrects it immediately.
	d.Heard(0)
	if s := d.State(0); s != StateAlive {
		t.Fatalf("after being heard = %v, want alive", s)
	}
	if got := d.Snapshot(); got[0] != StateAlive || got[1] != StateDown {
		t.Fatalf("snapshot = %v", got)
	}
}

func TestIngestReachesQuorumAndStampsOneArrival(t *testing.T) {
	clock := &fakeClock{}
	clock.Advance(42 * time.Hour)
	nodes, c := newCluster(t, 3, 2, 2, clock.Now)

	dev := devOwnedBy(t, c.Ring(), 2, 0, 1)
	if err := c.Ingest(context.Background(), sealed(t, dev, 1, 7.5)); err != nil {
		t.Fatal(err)
	}
	if st := c.Stats(); st.Acked != 1 {
		t.Fatalf("acked = %d", st.Acked)
	}
	id := lpwan.EUIFromUint64(dev)
	h0 := nodes[0].store.History(id)
	h1 := nodes[1].store.History(id)
	if len(h0) != 1 || len(h1) != 1 {
		t.Fatalf("replica histories: %d and %d records", len(h0), len(h1))
	}
	if h0[0] != h1[0] {
		t.Fatalf("replicas diverge: %+v vs %+v", h0[0], h1[0])
	}
	if h0[0].At != 42*time.Hour {
		t.Fatalf("arrival = %v, want the coordinator's stamp 42h", h0[0].At)
	}
	// The non-owner held nothing.
	if h2 := nodes[2].store.History(id); len(h2) != 0 {
		t.Fatalf("non-owner stored %d records", len(h2))
	}
}

func TestIngestDuplicateRetryCountsAsQuorum(t *testing.T) {
	clock := &fakeClock{}
	_, c := newCluster(t, 3, 2, 2, clock.Now)
	dev := devOwnedBy(t, c.Ring(), 2, 0, 1)
	wire := sealed(t, dev, 1, 1)
	if err := c.Ingest(context.Background(), wire); err != nil {
		t.Fatal(err)
	}
	// The same packet again: both replicas answer 422-duplicate, which
	// still certifies durability — the ack must succeed, not 503.
	if err := c.Ingest(context.Background(), wire); err != nil {
		t.Fatalf("duplicate re-ingest not acked: %v", err)
	}
	if st := c.Stats(); st.Acked != 2 || st.NoQuorum != 0 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestIngestMissedQuorumShedsWithReplicaHint(t *testing.T) {
	// One peer that always sheds with its own Retry-After hint.
	shedding := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Retry-After", "7")
		http.Error(w, "draining", http.StatusServiceUnavailable)
	}))
	defer shedding.Close()

	c, err := New(Config{
		Peers: []string{shedding.URL}, Replicas: 1, WriteQuorum: 1, Secret: secret,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), time.Second)
		defer cancel()
		_ = c.Close(ctx)
	}()

	err = c.Ingest(context.Background(), sealed(t, 5, 1, 1))
	if !errors.Is(err, ErrNoQuorum) {
		t.Fatalf("err = %v, want ErrNoQuorum", err)
	}
	var ra *resilience.RetryAfterError
	if !errors.As(err, &ra) || ra.After != 7*time.Second {
		t.Fatalf("hint not propagated end-to-end: %v", err)
	}
	if st := c.Stats(); st.NoQuorum != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestIngestMalformedIsPermanent(t *testing.T) {
	_, c := newCluster(t, 3, 2, 2, nil)
	err := c.Ingest(context.Background(), []byte("runt"))
	if !resilience.IsPermanent(err) {
		t.Fatalf("malformed packet not permanent: %v", err)
	}
	if st := c.Stats(); st.Rejected != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestHistoryMergesAndReadRepairs(t *testing.T) {
	clock := &fakeClock{}
	nodes, c := newCluster(t, 2, 2, 1, clock.Now)
	dev := devOwnedBy(t, c.Ring(), 2, 0, 1)
	id := lpwan.EUIFromUint64(dev)

	// Both replicas accept seqs 1-2; then node 1 "misses" 3-5 (as if it
	// was down while W=1 acks continued on node 0).
	for seq := uint32(1); seq <= 5; seq++ {
		clock.Advance(time.Minute)
		wire := sealed(t, dev, seq, float32(seq))
		at := clock.Now()
		if err := nodes[0].store.Ingest(at, wire); err != nil {
			t.Fatal(err)
		}
		if seq <= 2 {
			if err := nodes[1].store.Ingest(at, wire); err != nil {
				t.Fatal(err)
			}
		}
	}

	// Refresh the detector: five fake-clock minutes have passed since
	// boot, so without a heartbeat round every node looks down.
	c.HeartbeatOnce(context.Background())

	recs, err := c.History(context.Background(), id, 0, 1<<62)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 5 {
		t.Fatalf("merged history has %d records, want 5", len(recs))
	}
	for i, rec := range recs {
		if rec.Seq != uint32(i+1) {
			t.Fatalf("merged order wrong at %d: %+v", i, recs)
		}
	}
	// The read repaired the lagging replica byte-exact.
	h0, h1 := nodes[0].store.History(id), nodes[1].store.History(id)
	if len(h1) != 5 {
		t.Fatalf("lagging replica still has %d records after read", len(h1))
	}
	for i := range h0 {
		if h0[i] != h1[i] {
			t.Fatalf("replicas diverge at %d: %+v vs %+v", i, h0[i], h1[i])
		}
	}
	if st := c.Stats(); st.RepairedRecords != 3 {
		t.Fatalf("repaired = %d, want 3", st.RepairedRecords)
	}

	// Range bounds apply to the merged view.
	recs, err = c.History(context.Background(), id, 90*time.Second, 150*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 1 || recs[0].Seq != 2 {
		t.Fatalf("range query returned %+v", recs)
	}
}

func TestHealthAggregationTriState(t *testing.T) {
	clock := &fakeClock{}
	nodes, c := newCluster(t, 3, 2, 2, clock.Now)
	h := obs.NewHealth()
	c.RegisterHealth(h)

	c.HeartbeatOnce(context.Background())
	if _, status := h.ReportStatus(); status != obs.StatusHealthy {
		t.Fatalf("all nodes up: status = %v", status)
	}

	// Kill one node; let the detector decay it to down.
	nodes[2].srv.Close()
	clock.Advance(5 * time.Second)
	c.HeartbeatOnce(context.Background())
	body, status := h.ReportStatus()
	if status != obs.StatusDegraded {
		t.Fatalf("one of three down: status = %v (%q), want degraded", status, body)
	}

	// Kill everything: some partition has zero live owners -> failed.
	nodes[0].srv.Close()
	nodes[1].srv.Close()
	clock.Advance(5 * time.Second)
	c.HeartbeatOnce(context.Background())
	if _, status := h.ReportStatus(); status != obs.StatusFailed {
		t.Fatalf("all nodes down: status = %v, want failed", status)
	}
}

func TestFrontHandlerEndToEnd(t *testing.T) {
	clock := &fakeClock{}
	_, c := newCluster(t, 3, 2, 2, clock.Now)
	front := httptest.NewServer(c.Handler())
	defer front.Close()

	dev := devOwnedBy(t, c.Ring(), 2, 0, 1)
	resp, err := http.Post(front.URL+"/ingest", "application/octet-stream",
		bytes.NewReader(sealed(t, dev, 1, 2.5)))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("ingest = %d", resp.StatusCode)
	}

	resp, err = http.Get(front.URL + "/history?device=" + lpwan.EUIFromUint64(dev).String())
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("history = %d", resp.StatusCode)
	}
	var out []httpapi.ReadingPayload
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	if len(out) != 1 || out[0].Seq != 1 || out[0].Value != 2.5 {
		t.Fatalf("history payload = %+v", out)
	}

	resp, err = http.Get(front.URL + "/status")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st statusPayload
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	if len(st.Nodes) != 3 || st.Replicas != 2 || st.WriteQuorum != 2 || st.Stats.Acked != 1 {
		t.Fatalf("status payload = %+v", st)
	}
}

// TestRouterLonePacketDispositions pins routerd's answers to a lone
// packet, against three real replicas at R=2, W=2: the status and
// Retry-After for each disposition a replica can give it, and, through
// the owners' counters, that the packet reached both owners and was
// refused there for the stated reason. The router acknowledges whatever
// a replica durably decided: a duplicate, a bad tag and a stale arrival
// are all final there, so all are 202. A payload of one packet travels bare, so each owner takes it
// on /ingest — a frame of one on routerd's /ingest/batch included.
func TestRouterLonePacketDispositions(t *testing.T) {
	const foldAt = 10 * 24 * time.Hour // each replica's fold watermark is a day below
	type replica struct {
		store        *cloud.Store
		server       *cloud.Server
		bare, frames atomic.Int64 // POSTs to /ingest and to /ingest/batch
	}
	replicas := make([]*replica, 3)
	urls := make([]string, len(replicas))
	for i := range replicas {
		store := cloud.NewStore(cloud.StaticKeys(master))
		if err := store.EnableRollups(rollup.Config{}, 24*time.Hour); err != nil {
			t.Fatal(err)
		}
		store.FoldRollups(foldAt)
		server := cloud.NewServer(store, time.Now())
		server.SetClusterSecret(secret)
		server.SetRetryAfter(7 * time.Second)
		r := &replica{store: store, server: server}
		srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
			switch req.URL.Path {
			case "/ingest":
				r.bare.Add(1)
			case "/ingest/batch":
				r.frames.Add(1)
			}
			server.ServeHTTP(w, req)
		}))
		t.Cleanup(srv.Close)
		replicas[i], urls[i] = r, srv.URL
	}
	clock := &fakeClock{}
	c, err := New(Config{
		Peers: urls, Replicas: 2, WriteQuorum: 2, Secret: secret, Clock: clock.Now,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = c.Close(context.Background()) })
	front := httptest.NewServer(c.Handler())
	t.Cleanup(front.Close)

	dev := devOwnedBy(t, c.Ring(), 2, 0, 1)
	fresh := sealed(t, dev, 1, 1)
	forged := sealed(t, dev, 2, 1)
	forged[len(forged)-1] ^= 0xff
	accepted := func(st cloud.IngestStats) uint64 { return st.Accepted }
	frameOfOne, err := batch.AppendFrame(nil, sealed(t, dev, 6, 1))
	if err != nil {
		t.Fatal(err)
	}

	for _, tc := range []struct {
		name       string
		at         time.Duration // the coordinator's arrival stamp
		route      string        // routerd's route, "" for /ingest
		body       []byte
		owners     []int
		counter    func(cloud.IngestStats) uint64 // what each owner must count once
		shed       int                            // the replica shedding, or -1
		status     int
		retryAfter string
	}{
		{"fresh", 2 * foldAt, "", fresh, []int{0, 1}, accepted, -1, http.StatusAccepted, ""},
		{"resent", 2 * foldAt, "", fresh, []int{0, 1},
			func(st cloud.IngestStats) uint64 { return st.Duplicates }, -1, http.StatusAccepted, ""},
		{"bad tag", 2 * foldAt, "", forged, []int{0, 1},
			func(st cloud.IngestStats) uint64 { return st.BadSignature }, -1, http.StatusAccepted, ""},
		{"below fold watermark", time.Hour, "", sealed(t, dev, 3, 1), []int{0, 1},
			func(st cloud.IngestStats) uint64 { return st.Stale }, -1, http.StatusAccepted, ""},
		{"runt", 2 * foldAt, "", []byte("runt"), nil, nil, -1, http.StatusUnprocessableEntity, ""},
		{"oversized", 2 * foldAt, "", make([]byte, httpapi.MaxPacketBody+1), nil, nil, -1,
			http.StatusRequestEntityTooLarge, ""},
		{"owner sheds", 2 * foldAt, "", sealed(t, dev, 4, 1), []int{0, 1}, accepted, 1,
			http.StatusServiceUnavailable, "7"},
		{"frame of one", 2 * foldAt, "/batch", frameOfOne, []int{0, 1}, accepted, -1, http.StatusAccepted, ""},
	} {
		t.Run(tc.name, func(t *testing.T) {
			// The jump is a silence the detector sees; refresh it, as
			// routerd's heartbeat goroutine would, so every owner is sent.
			clock.nanos.Store(int64(tc.at))
			c.HeartbeatOnce(context.Background())
			if tc.shed >= 0 {
				replicas[tc.shed].server.SetDegraded(true)
				defer replicas[tc.shed].server.SetDegraded(false)
			}
			before := make([]cloud.IngestStats, len(replicas))
			bare := make([]int64, len(replicas))
			for i, r := range replicas {
				before[i], bare[i] = r.store.Stats(), r.bare.Load()
			}
			resp, err := http.Post(front.URL+"/ingest"+tc.route, "application/octet-stream", bytes.NewReader(tc.body))
			if err != nil {
				t.Fatal(err)
			}
			resp.Body.Close()
			if resp.StatusCode != tc.status || resp.Header.Get("Retry-After") != tc.retryAfter {
				t.Fatalf("POST /ingest = %d, Retry-After %q; want %d, %q",
					resp.StatusCode, resp.Header.Get("Retry-After"), tc.status, tc.retryAfter)
			}
			for _, node := range tc.owners {
				if node == tc.shed {
					continue
				}
				if got := tc.counter(replicas[node].store.Stats()) - tc.counter(before[node]); got != 1 {
					t.Errorf("owner %d counted the packet %d times, want once", node, got)
				}
				if got := replicas[node].bare.Load() - bare[node]; got != 1 {
					t.Errorf("owner %d took the packet bare on /ingest %d times, want once", node, got)
				}
			}
		})
	}
	if st := c.Stats(); st.Acked != 5 || st.Rejected != 1 || st.NoQuorum != 1 {
		t.Errorf("router stats = %+v, want 5 acked, 1 rejected, 1 short of quorum", st)
	}
	for i, r := range replicas {
		if n := r.frames.Load(); n != 0 {
			t.Errorf("replica %d was sent %d frames on /ingest/batch; a lone packet travels bare", i, n)
		}
	}
}

// acceptAll is an in-process replica: every request is answered 202
// without a socket, so what a write allocates is the coordinator's own.
type acceptAll struct{}

func (acceptAll) RoundTrip(*http.Request) (*http.Response, error) {
	return &http.Response{StatusCode: http.StatusAccepted, Body: http.NoBody}, nil
}

// TestQuorumWriteAllocBudget pins the replicated write's allocations per
// call against three in-process replicas at R=2, W=2: what a write costs
// is per payload and per owner node — the request to each, its
// exactly-sized sub-frame, its goroutine — and never per packet, so a
// 256-packet frame costs what a 16-packet one does. A lone packet is one
// bare payload its two owners share, so it pays for two requests where a
// frame over three nodes pays for three. Before F10 each packet's owner
// list cost two more, and before S45 three zeroed builders and a second
// copy of each sub-frame cost three more. The count is the median call's:
// draining each response borrows io.Discard's pooled buffer, and a call
// that finds the pool empty pays 2 to refill it. Under -race, which drops
// one Put in four, most calls meet an empty pool once, so the median
// there may read 2 more.
//
// Bytes are bounded too: a 256-packet frame's sub-frames hold 12 KB of
// packets, and the write allocated 105 KB per frame before S45.
func TestQuorumWriteAllocBudget(t *testing.T) {
	const calls = 101
	const maxBytes = 32 << 10 // per 256-packet frame
	c := newAcceptAllCoordinator(t)
	ctx := context.Background()
	for _, tc := range quorumWriteCases(t, c) {
		got := make([]float64, calls)
		for i := range got {
			// AllocsPerRun(1, …) runs the write twice and counts the second.
			got[i] = testing.AllocsPerRun(1, func() {
				if err := tc.write(ctx); err != nil {
					t.Fatal(err)
				}
			})
		}
		sort.Float64s(got)
		if median := got[calls/2]; median != tc.allocs && !(raceEnabled && median == tc.allocs+2) {
			t.Errorf("a %d-packet write allocates %.0f times, want %.0f", tc.packets, median, tc.allocs)
		}
		if tc.packets != 256 {
			continue
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < calls; i++ {
			if err := tc.write(ctx); err != nil {
				t.Fatal(err)
			}
		}
		runtime.ReadMemStats(&after)
		if per := (after.TotalAlloc - before.TotalAlloc) / calls; per > maxBytes {
			t.Errorf("a %d-packet frame allocates %d bytes, want at most %d", tc.packets, per, maxBytes)
		}
	}
}

// BenchmarkQuorumWrite is routerd's replicated write against three
// in-process replicas at R=2, W=2 (the budget test's setup), per call: a
// lone packet through Ingest, and frames through IngestBatch.
func BenchmarkQuorumWrite(b *testing.B) {
	c := newAcceptAllCoordinator(b)
	ctx := context.Background()
	for _, tc := range quorumWriteCases(b, c) {
		b.Run(fmt.Sprintf("packets=%d", tc.packets), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if err := tc.write(ctx); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// quorumWriteCase is one row of the budget test and the benchmark: a
// write of packets packets and its measured allocations per call.
type quorumWriteCase struct {
	packets int
	allocs  float64
	write   func(context.Context) error
}

func quorumWriteCases(tb testing.TB, c *Coordinator) []quorumWriteCase {
	lone := sealed(tb, 1, 1, 1)
	cases := []quorumWriteCase{{
		packets: 1, allocs: 47,
		write: func(ctx context.Context) error { return c.Ingest(ctx, lone) },
	}}
	for _, n := range []int{16, 256} {
		frame := frameOf(tb, n)
		cases = append(cases, quorumWriteCase{
			packets: n, allocs: 71,
			write: func(ctx context.Context) error { return c.IngestBatch(ctx, frame) },
		})
	}
	return cases
}

// newAcceptAllCoordinator is a coordinator over three acceptAll
// replicas at R=2, W=2.
func newAcceptAllCoordinator(tb testing.TB) *Coordinator {
	tb.Helper()
	c, err := New(Config{
		Peers: []string{"http://a", "http://b", "http://c"}, Replicas: 2, WriteQuorum: 2,
		Secret: secret, Client: &http.Client{Transport: acceptAll{}},
	})
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(func() { _ = c.Close(context.Background()) })
	return c
}

// frameOf seals n packets of n distinct devices into one frame.
func frameOf(tb testing.TB, n int) []byte {
	tb.Helper()
	wires := make([][]byte, n)
	for i := range wires {
		wires[i] = sealed(tb, uint64(i+1), 1, 1)
	}
	frame, err := batch.AppendFrame(nil, wires...)
	if err != nil {
		tb.Fatal(err)
	}
	return frame
}
