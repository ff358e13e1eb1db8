package cluster

import (
	"bytes"
	"context"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"centuryscale/internal/batch"
	"centuryscale/internal/chaos"
	"centuryscale/internal/cloud"
	"centuryscale/internal/lpwan"
	"centuryscale/internal/obs"
	"centuryscale/internal/resilience"
	"centuryscale/internal/telemetry"
	"centuryscale/internal/tsdb"
)

// chaosNode is one durable endpoint the failover test can crash and
// resurrect: an explicit listener (so the address survives the kill), a
// WAL-backed store, and the data directory that outlives both.
type chaosNode struct {
	dir   string
	addr  string
	store *cloud.Store
	srv   *http.Server
}

func bootChaosNode(t *testing.T, dir, addr string) *chaosNode {
	t.Helper()
	db, err := tsdb.Open(tsdb.Options{Dir: dir, Shards: 4, Sync: tsdb.SyncAlways, Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	store := cloud.NewStoreWithDB(cloud.StaticKeys(master), db)
	if _, err := store.ReplayWAL(); err != nil {
		t.Fatal(err)
	}
	server := cloud.NewServer(store, time.Now())
	server.SetClusterSecret(secret)

	var ln net.Listener
	if addr == "" {
		ln, err = net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
	} else {
		// Reclaim the crashed instance's address, waiting out the kernel.
		deadline := time.Now().Add(5 * time.Second)
		for {
			ln, err = net.Listen("tcp", addr)
			if err == nil {
				break
			}
			if time.Now().After(deadline) {
				t.Fatalf("rebind %s: %v", addr, err)
			}
			time.Sleep(5 * time.Millisecond)
		}
	}
	n := &chaosNode{dir: dir, addr: ln.Addr().String(), store: store, srv: &http.Server{Handler: server}}
	go n.srv.Serve(ln)
	return n
}

// kill tears down the listener and every live connection at once and
// abandons the store without closing it — the WAL handles are left
// exactly as a power cut would leave them.
func (n *chaosNode) kill(t *testing.T) {
	t.Helper()
	if err := n.srv.Close(); err != nil {
		t.Fatal(err)
	}
}

// seedForVictim scans chaos seeds until PlanNodes elects the wanted
// first victim, so each subtest can kill a SPECIFIC node while the
// schedule itself stays a pure function of its seed.
func seedForVictim(t *testing.T, cfg chaos.NodeConfig, victim int) chaos.NodeConfig {
	t.Helper()
	for seed := uint64(1); seed < 1000; seed++ {
		cfg.Seed = seed
		evs := chaos.PlanNodes(cfg)
		if len(evs) > 0 && evs[0].Op == chaos.NodeKill && evs[0].Node == victim {
			return cfg
		}
	}
	t.Fatalf("no seed elects node %d as first victim", victim)
	return cfg
}

// TestChaosKillAnyNodeZeroAckedLoss is the cluster's acceptance test
// (ISSUE 6): a 3-node cluster at R=2, W=2 takes sustained ingest while
// a seeded chaos schedule hard-kills one node mid-stream and restarts
// it from its WAL. One subtest per victim proves "any node" literally.
//
// The contract: a packet the coordinator acknowledged is durable on BOTH
// owners at ack time, so no kill can lose it; packets refused during the
// outage (their partition cannot reach W=2) are the sender's to retry,
// and every one of them is eventually acknowledged after recovery. At
// the end, every acknowledged packet is stored on every owner exactly
// once, byte-exact (re-sealing the stored reading reproduces the
// original wire bytes) — and during the outage the cluster health
// reports degraded, never failed.
func TestChaosKillAnyNodeZeroAckedLoss(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-node WAL chaos test")
	}
	for victim := 0; victim < 3; victim++ {
		t.Run(fmt.Sprintf("kill-node-%d", victim), func(t *testing.T) {
			runChaosKill(t, victim)
		})
	}
}

func runChaosKill(t *testing.T, victim int) {
	const (
		totalPackets = 150
		killAfter    = 35
		// Keyed in acked packets, and during the outage only partitions
		// that exclude the victim can ack — so keep the window short
		// enough that the surviving third of the fleet drives recovery.
		downFor = 15
	)
	cfg := seedForVictim(t, chaos.NodeConfig{
		Nodes: 3, Kills: 1,
		FirstKillAfter: killAfter, DownFor: downFor,
	}, victim)
	schedule := chaos.NewNodeSchedule(cfg)

	nodes := make([]*chaosNode, 3)
	urls := make([]string, 3)
	for i := range nodes {
		nodes[i] = bootChaosNode(t, t.TempDir(), "")
		urls[i] = "http://" + nodes[i].addr
		t.Cleanup(func(i int) func() {
			return func() { _ = nodes[i].srv.Close(); _ = nodes[i].store.Close() }
		}(i))
	}

	coord, err := New(Config{
		Peers: urls, Replicas: 2, WriteQuorum: 2, Secret: secret,
		SuspectAfter: 25 * time.Millisecond, DownAfter: 75 * time.Millisecond,
		Client: &http.Client{Timeout: 2 * time.Second},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
		defer cancel()
		_ = coord.Close(ctx)
	}()
	health := obs.NewHealth()
	coord.RegisterHealth(health)

	// The device fleet: enough devices that every owner pair appears.
	const fleet = 8
	seqs := make([]uint32, fleet)
	makeWire := func(devIdx int) []byte {
		t.Helper()
		seqs[devIdx]++
		id := lpwan.EUIFromUint64(uint64(devIdx) + 1)
		wire, err := telemetry.Packet{
			Device: id, Seq: seqs[devIdx], Sensor: telemetry.SensorStrain,
			Value: float32(seqs[devIdx]),
		}.Seal(telemetry.DeriveKey(master, id))
		if err != nil {
			t.Fatal(err)
		}
		return wire
	}

	var (
		acked      [][]byte // exactly the payloads the cluster acknowledged
		pending    [][]byte // refused during the outage; retried until acked
		sawDegrade bool
		killed     = -1
	)
	ctx := context.Background()
	trySend := func(wire []byte) bool {
		if err := coord.Ingest(ctx, wire); err != nil {
			if resilience.IsPermanent(err) {
				t.Fatalf("packet surfaced permanent error: %v", err)
			}
			return false
		}
		acked = append(acked, wire)
		return true
	}
	applyDue := func() {
		for _, ev := range schedule.Due(len(acked)) {
			switch ev.Op {
			case chaos.NodeKill:
				t.Logf("chaos: killing node %d at %d acked", ev.Node, len(acked))
				nodes[ev.Node].kill(t)
				killed = ev.Node

				// Let the detector decay the corpse, then assert the
				// aggregate health: the cluster is degraded — still
				// serving its contract — never failed, because every
				// partition keeps a live owner.
				time.Sleep(100 * time.Millisecond)
				coord.HeartbeatOnce(ctx)
				body, status := health.ReportStatus()
				if status != obs.StatusDegraded {
					t.Fatalf("health during outage = %v (%q), want degraded", status, body)
				}
				sawDegrade = true
			case chaos.NodeRestart:
				t.Logf("chaos: restarting node %d at %d acked", ev.Node, len(acked))
				old := nodes[ev.Node]
				nodes[ev.Node] = bootChaosNode(t, old.dir, old.addr)
				killed = -1
			}
		}
	}

	for sent := 0; sent < totalPackets; sent++ {
		wire := makeWire(sent % fleet)
		if !trySend(wire) {
			pending = append(pending, wire)
		}
		applyDue()
		// Opportunistically retry the refused backlog as acks free up,
		// after a heartbeat round as routerd's heartbeat goroutine would
		// run: a rebooted node gets writes once it has been heard.
		if killed == -1 && len(pending) > 0 {
			coord.HeartbeatOnce(ctx)
			still := pending[:0]
			for _, w := range pending {
				if !trySend(w) {
					still = append(still, w)
				}
				applyDue()
			}
			pending = still
		}
	}
	if schedule.Remaining() > 0 {
		t.Fatalf("schedule did not finish: %d events left, %d acked", schedule.Remaining(), len(acked))
	}
	// Drain the refused backlog now that the full cluster is back.
	deadline := time.Now().Add(20 * time.Second)
	for len(pending) > 0 {
		if time.Now().After(deadline) {
			t.Fatalf("%d packets never acknowledged after recovery (stats %+v)", len(pending), coord.Stats())
		}
		coord.HeartbeatOnce(ctx)
		still := pending[:0]
		for _, w := range pending {
			if !trySend(w) {
				still = append(still, w)
			}
		}
		pending = still
		if len(pending) > 0 {
			time.Sleep(20 * time.Millisecond)
		}
	}

	if !sawDegrade {
		t.Fatal("the schedule never exercised the outage window")
	}
	if len(acked) != totalPackets {
		t.Fatalf("acked %d of %d sent", len(acked), totalPackets)
	}
	st := coord.Stats()
	if st.NoQuorum == 0 {
		t.Fatalf("kill never caused a quorum miss — the chaos window missed the datapath (stats %+v)", st)
	}

	// Recovery is complete: a heartbeat round later the cluster is
	// healthy again.
	coord.HeartbeatOnce(ctx)
	if body, status := health.ReportStatus(); status != obs.StatusHealthy {
		t.Fatalf("health after recovery = %v (%q)", status, body)
	}

	// Zero acknowledged loss, byte-exact, exactly once: every payload
	// the cluster ever acknowledged re-seals bit-for-bit from BOTH of
	// its owners' stores.
	type devHist map[uint32]cloud.Reading
	hists := make([]map[lpwan.EUI64]devHist, 3)
	for i, n := range nodes {
		hists[i] = make(map[lpwan.EUI64]devHist)
		for _, id := range n.store.Devices() {
			h := make(devHist)
			for _, rd := range n.store.History(id) {
				if _, dup := h[rd.Packet.Seq]; dup {
					t.Fatalf("node %d stores device %v seq %d twice", i, id, rd.Packet.Seq)
				}
				h[rd.Packet.Seq] = rd
			}
			hists[i][id] = h
		}
	}
	for _, wire := range acked {
		p, err := telemetry.Parse(wire)
		if err != nil {
			t.Fatal(err)
		}
		for _, owner := range coord.Ring().Owners(p.Device, 2) {
			rd, ok := hists[owner][p.Device][p.Seq]
			if !ok {
				t.Fatalf("acked packet dev %v seq %d missing from owner %d", p.Device, p.Seq, owner)
			}
			reseal, err := rd.Packet.Seal(telemetry.DeriveKey(master, p.Device))
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(reseal, wire) {
				t.Fatalf("owner %d stored dev %v seq %d mangled: % x vs % x", owner, p.Device, p.Seq, reseal, wire)
			}
		}
	}
}

// TestReplicaMissesCountWhatRepairOwes: at R=3, W=2 a packet that two
// owners accept is acknowledged without the third. With one of four
// nodes down for a span of writes — failing fast at first, then skipped
// once the detector calls it Down — cluster_replica_misses_total equals
// the acknowledged packets that node owns in the span, /status shows them
// as the node's misses, and once the node answers again, /history reads
// repair exactly that many records onto it.
func TestReplicaMissesCountWhatRepairOwes(t *testing.T) {
	for victim := 0; victim < 4; victim++ {
		t.Run(fmt.Sprintf("down-node-%d", victim), func(t *testing.T) {
			runReplicaMisses(t, victim)
		})
	}
}

func runReplicaMisses(t *testing.T, victim int) {
	const devices = 12
	var down atomic.Bool
	var writesWhileDown atomic.Int64
	urls := make([]string, 4)
	for i := range urls {
		server := cloud.NewServer(cloud.NewStore(cloud.StaticKeys(master)), time.Now())
		server.SetClusterSecret(secret)
		var h http.Handler = server
		if i == victim {
			h = http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
				if down.Load() {
					if strings.HasPrefix(r.URL.Path, "/ingest") {
						writesWhileDown.Add(1)
					}
					http.Error(w, "down", http.StatusInternalServerError)
					return
				}
				server.ServeHTTP(w, r)
			})
		}
		srv := httptest.NewServer(h)
		t.Cleanup(srv.Close)
		urls[i] = srv.URL
	}
	clock := &fakeClock{}
	clock.Advance(time.Hour)
	c, err := New(Config{
		Peers: urls, Replicas: 3, WriteQuorum: 2, Secret: secret,
		Clock: clock.Now, SuspectAfter: time.Second, DownAfter: 3 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = c.Close(context.Background()) })
	reg := obs.NewRegistry()
	c.RegisterMetrics(reg)
	front := newFront(t, c)
	ctx := context.Background()

	// owns reports whether victim is one of dev's three owners.
	owns := func(dev uint64) bool {
		for _, o := range c.Ring().Owners(lpwan.EUIFromUint64(dev), 3) {
			if o == victim {
				return true
			}
		}
		return false
	}
	frameAt := func(seq uint32) (frame []byte, owned uint64) {
		wires := make([][]byte, devices)
		for i := range wires {
			dev := uint64(i + 1)
			wires[i] = sealed(t, dev, seq, float32(seq))
			if owns(dev) {
				owned++
			}
		}
		if frame, err = batch.AppendFrame(nil, wires...); err != nil {
			t.Fatal(err)
		}
		return frame, owned
	}
	write := func(seq uint32) uint64 {
		t.Helper()
		frame, owned := frameAt(seq)
		clock.Advance(time.Second)
		if err := c.IngestBatch(ctx, frame); err != nil {
			t.Fatalf("frame %d: %v", seq, err)
		}
		return owned
	}

	write(1)
	down.Store(true)
	want := write(2) // the victim fails fast
	// A lone packet, of a device outside the frames, travels bare.
	lone := uint64(devices + 1)
	for !owns(lone) {
		lone++
	}
	if err := c.Ingest(ctx, sealed(t, lone, 1, 1)); err != nil {
		t.Fatal(err)
	}
	want++
	if n := writesWhileDown.Load(); n != 2 {
		t.Fatalf("the victim was sent %d writes before it was called down, want 2", n)
	}
	clock.Advance(3 * time.Second)
	c.HeartbeatOnce(ctx)
	if !c.Detector().Down(victim) {
		t.Fatalf("victim is %v after a silent heartbeat round, want down", c.Detector().State(victim))
	}
	want += write(3) // the victim is skipped
	if n := writesWhileDown.Load(); n != 2 {
		t.Fatalf("a down victim was sent %d more writes", n-2)
	}
	down.Store(false)
	c.HeartbeatOnce(ctx)
	write(4)

	if want == 0 {
		t.Fatal("the victim owns none of the devices; the span tests nothing")
	}
	var st statusPayload
	if code, body := front.get("/status", &st); code != http.StatusOK {
		t.Fatalf("/status: %d %s", code, body)
	}
	for i, n := range st.Nodes {
		exp := uint64(0)
		if i == victim {
			exp = want
		}
		if n.Misses != exp {
			t.Errorf("node %d misses = %d, want %d", i, n.Misses, exp)
		}
	}
	if line := fmt.Sprintf("cluster_replica_misses_total %d\n", want); !strings.Contains(string(reg.Exposition()), line) {
		t.Errorf("exposition lacks %q", line)
	}

	before := c.Stats().RepairedRecords
	for dev := uint64(1); dev <= lone; dev++ {
		if code, body := front.get("/history?device="+lpwan.EUIFromUint64(dev).String(), nil); code != http.StatusOK {
			t.Fatalf("/history of %d: %d %s", dev, code, body)
		}
	}
	if got := c.Stats().RepairedRecords - before; got != want {
		t.Fatalf("read-repair pushed %d records, want the %d the quorum forgave", got, want)
	}
}

// hungPeer listens on loopback, accepts every connection and never
// answers on it. It returns the peer's URL and a count of the
// connections accepted.
func hungPeer(t *testing.T) (string, *atomic.Int64) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	conns := new(atomic.Int64)
	var held sync.WaitGroup // the accept loop and every connection it holds
	hang := make(chan struct{})
	held.Add(1)
	go func() {
		defer held.Done()
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			conns.Add(1)
			held.Add(1)
			go func() {
				defer held.Done()
				<-hang
				conn.Close()
			}()
		}
	}()
	t.Cleanup(func() { ln.Close(); close(hang); held.Wait() })
	return "http://" + ln.Addr().String(), conns
}

// TestHungPeerDoesNotStretchHeartbeats: one peer accepts and never
// answers, on the default client (5 s timeout). A heartbeat round gives
// up on it at half of SuspectAfter, so the healthy peers are heard every
// round and never read Suspect or Down, while the hung one decays.
func TestHungPeerDoesNotStretchHeartbeats(t *testing.T) {
	hung, _ := hungPeer(t)
	live := []*node{newNode(t), newNode(t)}
	c, err := New(Config{
		Peers:    []string{live[0].srv.URL, live[1].srv.URL, hung},
		Replicas: 2, WriteQuorum: 2, Secret: secret,
		SuspectAfter: time.Second, DownAfter: 3 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = c.Close(context.Background()) })
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() {
		defer close(done)
		c.RunHeartbeats(ctx, 100*time.Millisecond)
	}()
	defer func() { cancel(); <-done }()

	for end := time.Now().Add(2500 * time.Millisecond); time.Now().Before(end); time.Sleep(50 * time.Millisecond) {
		if s := c.Detector().Snapshot(); s[0] != StateAlive || s[1] != StateAlive {
			t.Fatalf("detector = %v: a hung peer's probe kept the healthy ones unheard", s)
		}
	}
	if s := c.Detector().State(2); s == StateAlive {
		t.Fatalf("hung peer reads %v after 2.5 s of silence", s)
	}
}

// TestHungReplicaStopsStallingWrites: at R=3, W=2 one owner accepts
// connections and never answers. Once the detector calls it Down,
// writes are acknowledged by the other two without waiting out the
// client timeout, and the hung owner receives no further request.
func TestHungReplicaStopsStallingWrites(t *testing.T) {
	hung, conns := hungPeer(t)
	live := []*node{newNode(t), newNode(t)}
	const timeout = 10 * time.Second
	clock := &fakeClock{}
	clock.Advance(time.Hour)
	c, err := New(Config{
		Peers:    []string{live[0].srv.URL, live[1].srv.URL, hung},
		Replicas: 3, WriteQuorum: 2, Secret: secret,
		Clock: clock.Now, SuspectAfter: time.Second, DownAfter: 3 * time.Second,
		Client: &http.Client{Timeout: timeout},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = c.Close(context.Background()) })

	// The hung peer is silent past DownAfter; one heartbeat round hears
	// the other two, and gives up on the hung probe at its own deadline.
	clock.Advance(3 * time.Second)
	hb, cancel := context.WithTimeout(context.Background(), 200*time.Millisecond)
	c.HeartbeatOnce(hb)
	cancel()
	if s := c.Detector().Snapshot(); s[0] != StateAlive || s[1] != StateAlive || s[2] != StateDown {
		t.Fatalf("detector = %v, want [alive alive down]", s)
	}
	probes := conns.Load()

	start := time.Now()
	for seq := uint32(1); seq <= 20; seq++ {
		if err := c.Ingest(context.Background(), sealed(t, uint64(seq), seq, 1)); err != nil {
			t.Fatalf("write %d: %v", seq, err)
		}
	}
	if took := time.Since(start); took >= timeout/2 {
		t.Fatalf("20 writes took %v: a down replica still stalls them", took)
	}
	if n := conns.Load() - probes; n != 0 {
		t.Fatalf("the hung replica was sent %d requests after it was called down", n)
	}
	if got := c.peers[2].misses.Load(); got != 20 {
		t.Fatalf("hung replica misses = %d, want all 20 writes", got)
	}
}
