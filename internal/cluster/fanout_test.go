package cluster

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"errors"
	"io"
	"math"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"centuryscale/internal/batch"
	"centuryscale/internal/cloud"
	"centuryscale/internal/lpwan"
	"centuryscale/internal/telemetry"
)

// TestConcurrentFramesLandIntact drives concurrent frames over disjoint
// devices through a coordinator (R=2, W=2) to three real replica
// servers, with the default client, and checks three things (DESIGN.md
// S45): every packet is acknowledged, both owners of every device hold
// exactly what was sent, and once the first round has opened a
// connection per concurrent frame, no round after it dials another — the
// default client keeps enough idle connections per peer for sends that
// overlap.
func TestConcurrentFramesLandIntact(t *testing.T) {
	const workers, rounds, perFrame = 8, 40, 64
	const arrival = time.Hour // the coordinator's stamp for every frame

	// In the first round each replica holds its ingest requests until
	// one per worker has arrived, or 200ms have passed, so the round
	// opens every connection the run can use at once. Sends that do not
	// overlap simply wait the 200ms out.
	var gating atomic.Bool
	gating.Store(true)
	nodes := make([]*node, 3)
	dials := make([]atomic.Int64, len(nodes))
	urls := make([]string, len(nodes))
	for i := range nodes {
		store := cloud.NewStore(cloud.StaticKeys(master))
		server := cloud.NewServer(store, time.Now())
		server.SetClusterSecret(secret)
		var arrived atomic.Int32
		full := make(chan struct{})
		srv := httptest.NewUnstartedServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if gating.Load() && r.URL.Path == "/ingest/batch" {
				if arrived.Add(1) == workers {
					close(full)
				}
				select {
				case <-full:
				case <-time.After(200 * time.Millisecond):
				}
			}
			server.ServeHTTP(w, r)
		}))
		srv.Config.ConnState = func(_ net.Conn, s http.ConnState) {
			if s == http.StateNew {
				dials[i].Add(1)
			}
		}
		srv.Start()
		t.Cleanup(srv.Close)
		nodes[i] = &node{store: store, srv: srv}
		urls[i] = srv.URL
	}
	c, err := New(Config{
		Peers: urls, Replicas: 2, WriteQuorum: 2, Secret: secret,
		Clock: func() time.Duration { return arrival },
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close(context.Background())

	device := func(w, i int) uint64 { return uint64(w*perFrame + i + 1) }
	value := func(r, i int) float32 { return float32(r*perFrame + i) }
	frames := make([][][]byte, workers)
	for w := range frames {
		frames[w] = make([][]byte, rounds)
		for r := range frames[w] {
			wires := make([][]byte, perFrame)
			for i := range wires {
				wires[i] = sealed(t, device(w, i), uint32(r+1), value(r, i))
			}
			if frames[w][r], err = batch.AppendFrame(nil, wires...); err != nil {
				t.Fatal(err)
			}
		}
	}

	var firstRound sync.WaitGroup
	firstRound.Add(workers)
	rest := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for r, frame := range frames[w] {
				if err := c.IngestBatch(context.Background(), frame); err != nil {
					t.Errorf("worker %d round %d: %v", w, r, err)
				}
				if r == 0 {
					firstRound.Done()
					<-rest
				}
			}
		}(w)
	}
	firstRound.Wait()
	gating.Store(false)
	opened := make([]int64, len(nodes))
	for i := range dials {
		opened[i] = dials[i].Load()
	}
	close(rest)
	wg.Wait()

	for i := range dials {
		if got := dials[i].Load(); got != opened[i] {
			t.Errorf("replica %d: %d connections after the first round, %d after the run; the default client must reuse them",
				i, opened[i], got)
		}
	}
	if st := c.Stats(); st.Acked != workers*rounds*perFrame || st.NoQuorum != 0 {
		t.Errorf("acked %d, no quorum %d; want %d and 0", st.Acked, st.NoQuorum, workers*rounds*perFrame)
	}

	for w := 0; w < workers; w++ {
		for i := 0; i < perFrame; i++ {
			id := lpwan.EUIFromUint64(device(w, i))
			want := make([]cloud.ClusterRecord, rounds)
			for r := range want {
				want[r] = cloud.ClusterRecord{
					AtNanos: int64(arrival), Seq: uint32(r + 1),
					Sensor: uint8(telemetry.SensorStrain), ValueBits: math.Float32bits(value(r, i)),
				}
			}
			var wantBody bytes.Buffer
			if err := json.NewEncoder(&wantBody).Encode(want); err != nil {
				t.Fatal(err)
			}
			for _, owner := range c.Ring().Owners(id, 2) {
				if got := clusterHistory(t, nodes[owner].srv.URL, id); !bytes.Equal(got, wantBody.Bytes()) {
					t.Fatalf("device %v on replica %d:\n got %s\nwant %s", id, owner, got, wantBody.Bytes())
				}
			}
		}
	}
}

// TestReplicaSendsOverlap pins F12 (DESIGN.md S45): the coordinator
// holds no per-peer lock across a replica send, so a second payload for
// the same owner is delivered while that replica still holds the first
// request. The replica hop makes one attempt, so in_flight is the only
// case: there is no retry backoff for a second payload to overlap with.
func TestReplicaSendsOverlap(t *testing.T) {
	t.Run("in_flight", func(t *testing.T) {
		parked, release := make(chan struct{}), make(chan struct{})
		var holding atomic.Bool
		replica := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if !holding.Swap(true) {
				close(parked)
				<-release
			}
			w.WriteHeader(http.StatusAccepted)
		}))
		defer replica.Close()
		c, err := New(Config{Peers: []string{replica.URL}, Replicas: 1, WriteQuorum: 1, Secret: secret})
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close(context.Background())

		ctx := context.Background()
		first, second := sealed(t, 1, 1, 1), sealed(t, 2, 1, 1)
		held := make(chan error, 1)
		go func() { held <- c.Ingest(ctx, first) }()
		select {
		case <-parked:
		case <-time.After(5 * time.Second):
			t.Fatal("the first payload never reached the replica")
		}
		overlapped := make(chan error, 1)
		go func() { overlapped <- c.Ingest(ctx, second) }()
		select {
		case err := <-overlapped:
			close(release)
			if err != nil {
				t.Fatalf("second payload: %v", err)
			}
		case <-time.After(2 * time.Second):
			close(release)
			t.Fatal("a second payload to the same replica waited for the first")
		}
		if err := <-held; err != nil {
			t.Fatalf("first payload: %v", err)
		}
	})
}

// TestDownPeerSendsNothing: the failure detector, on the coordinator's
// one clock, gates replica writes as it gates reads. A write that
// reaches the peer marks it heard; a peer silent past DownAfter gets no
// request, and the write misses quorum at once with ErrPeerDown as the
// cause; one heartbeat round that reaches the peer lets the next write
// through. Each payload is sent once: the caller, not the coordinator,
// retries.
func TestDownPeerSendsNothing(t *testing.T) {
	var writes atomic.Int64
	replica := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/status" {
			return
		}
		writes.Add(1)
		w.WriteHeader(http.StatusAccepted)
	}))
	defer replica.Close()
	clock := &fakeClock{}
	c, err := New(Config{
		Peers: []string{replica.URL}, Replicas: 1, WriteQuorum: 1, Secret: secret,
		Clock: clock.Now, SuspectAfter: time.Second, DownAfter: 3 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close(context.Background())

	ctx := context.Background()
	// Two writes 2 s apart, then 2 s more: the second write was heard,
	// so 4 s after boot the peer is only suspect and still gets writes.
	for seq := uint32(1); seq <= 3; seq++ {
		if err := c.Ingest(ctx, sealed(t, 1, seq, 1)); err != nil {
			t.Fatalf("write %d to a heard peer: %v", seq, err)
		}
		clock.Advance(2 * time.Second)
	}
	if n := writes.Load(); n != 3 {
		t.Fatalf("three writes made %d requests, want 3: each payload is sent once", n)
	}
	clock.Advance(time.Second) // 3 s since the last write: Down
	// The quorum error names the last replica's cause in text only: were
	// it wrapped, one replica's permanent refusal would make the whole
	// missed quorum permanent upstream.
	err = c.Ingest(ctx, sealed(t, 1, 4, 1))
	if !errors.Is(err, ErrNoQuorum) || !strings.Contains(err.Error(), ErrPeerDown.Error()) {
		t.Fatalf("write to a down peer: %v, want ErrNoQuorum from ErrPeerDown", err)
	}
	if n := writes.Load(); n != 3 {
		t.Fatalf("a down peer got %d requests", n-3)
	}
	c.HeartbeatOnce(ctx) // the peer answers /status: heard
	if err := c.Ingest(ctx, sealed(t, 1, 4, 1)); err != nil {
		t.Fatalf("write after the peer was heard: %v", err)
	}
	if n := writes.Load(); n != 4 {
		t.Fatalf("the write after recovery made %d requests, want 1", n-3)
	}
}

// clusterHistory returns the body of a replica's /cluster/history for id.
func clusterHistory(t *testing.T, base string, id lpwan.EUI64) []byte {
	t.Helper()
	req, err := http.NewRequest("GET", base+"/cluster/history?device="+id.String(), nil)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set(cloud.ClusterSecretHeader, secret)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("history of %v: %d, %v", id, resp.StatusCode, err)
	}
	return body
}

// FuzzClusterPayload fuzzes the cluster payload `[8B nanos][packet|frame]`
// from both ends: splitClusterPayload must refuse anything shorter than
// a stamp and one packet and never panic, and every payload ownerPayloads
// builds — from fuzz-chosen packets spread over three nodes at R=2 —
// must split back into the same stamp and, for one packet, that packet
// bare, else a frame that batch.Split accepts, holding exactly that
// node's packets in frame order.
func FuzzClusterPayload(f *testing.F) {
	seed := make([]byte, 3*(1+batch.PacketSize))
	for i := range seed {
		seed[i] = byte(i * 7)
	}
	f.Add(int64(0), []byte{})
	f.Add(int64(time.Hour), seed)
	f.Add(int64(-1), seed[:8+batch.PacketSize])
	f.Add(int64(math.MaxInt64), seed[:8+batch.PacketSize-1])
	f.Fuzz(func(t *testing.T, stamp int64, data []byte) {
		at, wire, err := splitClusterPayload(data)
		switch {
		case len(data) < 8+telemetry.PacketSize:
			if err == nil {
				t.Fatalf("a %d-byte payload was accepted", len(data))
			}
		case err != nil:
			t.Fatalf("a %d-byte payload was refused: %v", len(data), err)
		case at != time.Duration(binary.BigEndian.Uint64(data)) || !bytes.Equal(wire, data[8:]):
			t.Fatal("split moved the stamp or the packet bytes")
		}

		// Each chunk of 1+PacketSize bytes is a packet and the byte
		// choosing its two distinct owners of three nodes.
		const nodes, rep = 3, 2
		n := min(len(data)/(1+batch.PacketSize), batch.DefaultMaxPackets)
		if n == 0 {
			return
		}
		payload := make([]byte, 0, n*batch.PacketSize)
		owners := make([]int, 0, n*rep)
		for j := 0; j < n; j++ {
			chunk := data[j*(1+batch.PacketSize):]
			first := int(chunk[0]) % nodes
			second := (first + 1 + int(chunk[0]/nodes)%2) % nodes
			owners = append(owners, first, second)
			payload = append(payload, chunk[1:1+batch.PacketSize]...)
		}
		arrival := time.Duration(stamp)
		for node, p := range ownerPayloads(arrival, payload, owners, rep, nodes) {
			var want [][]byte
			for k, o := range owners {
				if o == node {
					want = append(want, batch.Packet(payload, k/rep))
				}
			}
			if p == nil {
				if len(want) != 0 {
					t.Fatalf("node %d owns %d packets but got no payload", node, len(want))
				}
				continue
			}
			at, frame, err := splitClusterPayload(p)
			if err != nil || at != arrival {
				t.Fatalf("node %d: stamp %v, %v; want %v", node, at, err, arrival)
			}
			if n == 1 {
				if !bytes.Equal(frame, want[0]) {
					t.Fatalf("node %d: the lone packet is not sent bare", node)
				}
				continue
			}
			body, k, err := batch.Split(frame, 0)
			if err != nil || k != len(want) {
				t.Fatalf("node %d: Split = %d packets, %v; want %d", node, k, err, len(want))
			}
			for i := range want {
				if !bytes.Equal(batch.Packet(body, i), want[i]) {
					t.Fatalf("node %d: packet %d differs", node, i)
				}
			}
		}
	})
}
