package cluster

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"centuryscale/internal/batch"
	"centuryscale/internal/cloud"
	"centuryscale/internal/httpapi"
	"centuryscale/internal/lpwan"
	"centuryscale/internal/obs"
	"centuryscale/internal/resilience"
	"centuryscale/internal/telemetry"
	"centuryscale/internal/tsdb"
)

// Config tunes a Coordinator. Peers, Replicas, WriteQuorum, and Secret
// are required; zero values elsewhere take the defaults noted.
type Config struct {
	// Peers are the endpoint nodes' base URLs; the slice index is the
	// node's identity on the ring, so every router must list peers in
	// the same order.
	Peers []string
	// Replicas (R) is how many owners each packet is written to.
	Replicas int
	// WriteQuorum (W) is how many owners must durably append before the
	// coordinator acknowledges. 1 <= W <= R.
	WriteQuorum int
	// Secret is the shared cluster secret; it authenticates the
	// coordinator's arrival stamps and the replication routes.
	Secret string
	// VNodes is the ring's virtual-node count per peer. Default 64.
	VNodes int
	// Clock stamps arrivals and drives the failure detector, the one
	// opinion of peer health that writes, reads, /status and /healthz
	// all ask. Default obs.ProcessClock(); tests inject a fake.
	Clock obs.Clock
	// SuspectAfter / DownAfter are the detector thresholds. Defaults
	// 2s / 6s. A peer unheard for DownAfter gets no replica write and
	// no read until a heartbeat or a write reaches it again.
	SuspectAfter time.Duration
	DownAfter    time.Duration
	// Client is the HTTP client for replicated writes, heartbeats and
	// read paths. Default: 5-second timeout, over a transport that keeps
	// peerIdleConns idle connections per peer and writes each request
	// whole (peerWriteBuffer).
	Client *http.Client
}

// Errors from the coordinator.
var (
	// ErrRefused is a replica's 422: it decided the payload for good —
	// a duplicate, a bad tag, a sealed arrival — so no retry can change
	// the answer. A success for quorum purposes: the replica's decision
	// is final there.
	ErrRefused = errors.New("cluster: replica refused the payload for good")
	// ErrNoQuorum reports that fewer than W replicas durably appended;
	// the packet is NOT acknowledged and the caller must retry.
	ErrNoQuorum = errors.New("cluster: write quorum not reached")
	// ErrUnavailable reports that a read found no live replica for the
	// device's partition.
	ErrUnavailable = errors.New("cluster: no live replica for partition")
	// ErrPeerDown reports a replica send skipped without a request: the
	// failure detector calls the peer Down. Transient, like any failed
	// send.
	ErrPeerDown = errors.New("cluster: peer down")
)

// peerIdleConns is how many idle connections the default client keeps
// per peer. Replica sends to one peer overlap (DESIGN.md S45), one per
// frame in flight, and http.DefaultTransport keeps only 2 idle per host:
// a third concurrent frame would dial, and then discard, a connection
// every time. 64 lets that many frames per peer overlap without a dial,
// and bounds the idle sockets a burst leaves open.
const peerIdleConns = 64

// peerWriteBuffer sizes the default client's per-connection write
// buffer to hold a request's headers and the largest payload the
// coordinator sends, a stamp and a full frame, so each replica request
// leaves in one write. http.DefaultTransport's 4 KB buffer splits a
// typical 4 KB sub-frame request in two.
const peerWriteBuffer = 4<<10 + 8 + batch.MaxFrameBytes

// peer is the coordinator's handle on one endpoint node.
type peer struct {
	url string
	// misses counts packets acknowledged without this owner: its send
	// failed, or was skipped as Down, while the other owners met W.
	// Read-repair owes it exactly these records.
	misses atomic.Uint64
}

// Coordinator is the router-tier brain: it partitions devices over the
// ring, sends each ingest payload once to its R owners, acknowledges on
// W durable appends, detects dead nodes by heartbeat, and read-repairs
// divergent replicas on range queries. It retries nothing itself: a
// missed quorum goes back to whoever sent the payload, whose own uplink
// buffers and retries it (DESIGN.md S51). Safe for concurrent use.
type Coordinator struct {
	cfg    Config
	ring   *Ring
	det    *Detector
	peers  []*peer
	client *http.Client
	clock  obs.Clock

	acked       atomic.Uint64
	inflight    atomic.Int64 // replica sends in progress, over all peers
	noQuorum    atomic.Uint64
	rejected    atomic.Uint64
	repaired    atomic.Uint64
	hbFailures  atomic.Uint64
	lastHB      atomic.Int64 // clock nanos of the last heartbeat round
	healthState atomic.Int32 // last health status computed, for /status
}

// New builds a coordinator. It validates the quorum arithmetic up front:
// a misconfigured W is a deployment error better caught at boot than
// discovered as silent data loss in year 30.
func New(cfg Config) (*Coordinator, error) {
	if len(cfg.Peers) == 0 {
		return nil, errors.New("cluster: no peers")
	}
	if cfg.Replicas <= 0 {
		cfg.Replicas = 2
	}
	if cfg.Replicas > len(cfg.Peers) {
		return nil, fmt.Errorf("cluster: %d replicas but only %d peers", cfg.Replicas, len(cfg.Peers))
	}
	if cfg.WriteQuorum <= 0 {
		cfg.WriteQuorum = cfg.Replicas/2 + 1
	}
	if cfg.WriteQuorum > cfg.Replicas {
		return nil, fmt.Errorf("cluster: write quorum %d exceeds replicas %d", cfg.WriteQuorum, cfg.Replicas)
	}
	if cfg.Secret == "" {
		return nil, errors.New("cluster: empty secret")
	}
	if cfg.Clock == nil {
		cfg.Clock = obs.ProcessClock()
	}
	if cfg.SuspectAfter <= 0 {
		cfg.SuspectAfter = 2 * time.Second
	}
	if cfg.DownAfter <= cfg.SuspectAfter {
		cfg.DownAfter = 3 * cfg.SuspectAfter
	}
	if cfg.Client == nil {
		tr := http.DefaultTransport.(*http.Transport).Clone()
		tr.MaxIdleConns = peerIdleConns * len(cfg.Peers)
		tr.MaxIdleConnsPerHost = peerIdleConns
		tr.WriteBufferSize = peerWriteBuffer
		cfg.Client = &http.Client{Timeout: 5 * time.Second, Transport: tr}
	}

	c := &Coordinator{
		cfg:    cfg,
		ring:   NewRing(len(cfg.Peers), cfg.VNodes),
		det:    NewDetector(len(cfg.Peers), cfg.Clock, cfg.SuspectAfter, cfg.DownAfter),
		client: cfg.Client,
		clock:  cfg.Clock,
	}
	for _, url := range cfg.Peers {
		c.peers = append(c.peers, &peer{url: url})
	}
	return c, nil
}

// Close drops the client's idle connections. The coordinator holds
// nothing else to release: it buffers no payload and runs no goroutine
// of its own. It always returns nil.
func (c *Coordinator) Close(context.Context) error {
	c.client.CloseIdleConnections()
	return nil
}

// Ring exposes the partition map (for status pages and tests).
func (c *Coordinator) Ring() *Ring { return c.ring }

// Detector exposes the failure detector (for status pages and tests).
func (c *Coordinator) Detector() *Detector { return c.det }

// ownerPayloads builds every owner node's cluster payload: the arrival
// stamp (8 bytes, big-endian nanoseconds), then what that node owns.
// owners lists packet j/rep's owners at j, as quorumWrite lays them out;
// nodes is the peer count, and a node that owns nothing gets nil.
//
// The payload's size picks the shape. A lone packet travels bare, in one
// buffer its owners share: a replica answers it with an empty 202, where
// a frame of one would cost a JSON BatchResult and 32 more allocations
// per packet end to end (DESIGN.md S46). More packets give each
// owner a sealed sub-frame of exactly the packets it owns, in payload
// order, allocated once at its exact size and written in place.
//
// The stamp rides inside the payload, so one buffer per owner carries
// everything its request needs. The buffers are not pooled: an
// http.RoundTripper may still read a request body after RoundTrip
// returns, so a recycled buffer could be overwritten while a transport
// is still writing it (DESIGN.md S45).
func ownerPayloads(arrival time.Duration, payload []byte, owners []int, rep, nodes int) [][]byte {
	payloads := make([][]byte, nodes)
	if len(owners) == rep {
		lone := make([]byte, 8+len(payload))
		binary.BigEndian.PutUint64(lone[:8], uint64(arrival))
		copy(lone[8:], payload)
		for _, node := range owners {
			payloads[node] = lone
		}
		return payloads
	}
	// at counts each node's packets, then serves as its write cursor.
	at := make([]int, nodes)
	for _, node := range owners {
		at[node]++
	}
	for node, k := range at {
		if k == 0 {
			continue
		}
		buf := make([]byte, 8+batch.HeaderSize+k*batch.PacketSize)
		binary.BigEndian.PutUint64(buf[:8], uint64(arrival))
		payloads[node] = buf
		at[node] = 8 + batch.HeaderSize
	}
	for j, node := range owners {
		at[node] += copy(payloads[node][at[node]:], batch.Packet(payload, j/rep))
	}
	for _, p := range payloads {
		if p != nil {
			batch.Seal(p[8:])
		}
	}
	return payloads
}

func splitClusterPayload(payload []byte) (time.Duration, []byte, error) {
	if len(payload) < 8+telemetry.PacketSize {
		return 0, nil, fmt.Errorf("cluster: short payload (%d bytes)", len(payload))
	}
	return time.Duration(binary.BigEndian.Uint64(payload[:8])), payload[8:], nil
}

// send posts one owner's stamped payload to node once, unless the
// failure detector calls the node Down: then it makes no request and
// returns ErrPeerDown, as the read paths skip a Down node. A success — a
// 202, or a refusal the node made for good — marks the node heard. Sends
// to one peer take no lock and overlap (DESIGN.md S45).
func (c *Coordinator) send(ctx context.Context, node int, payload []byte) error {
	if c.det.Down(node) {
		return ErrPeerDown
	}
	err := c.post(ctx, c.peers[node], payload)
	if quorumSuccess(err) {
		c.det.Heard(node)
	}
	return err
}

// post is send's request: a bare packet to /ingest, a frame to
// /ingest/batch, under the cluster headers.
func (c *Coordinator) post(ctx context.Context, p *peer, payload []byte) error {
	arrival, wire, err := splitClusterPayload(payload)
	if err != nil {
		return resilience.Permanent(err)
	}
	// One sender carries both shapes: a bare packet (exactly PacketSize
	// bytes) goes to /ingest, a batch frame to /ingest/batch. The two
	// can never be confused — a frame is at least header + one packet.
	route := "/ingest"
	if batch.IsFrame(wire) {
		route = "/ingest/batch"
	}
	req, err := http.NewRequestWithContext(ctx, "POST", p.url+route, bytes.NewReader(wire))
	if err != nil {
		return resilience.Permanent(err)
	}
	req.Header.Set("Content-Type", "application/octet-stream")
	req.Header.Set(cloud.ClusterSecretHeader, c.cfg.Secret)
	req.Header.Set(cloud.ClusterArrivalHeader, strconv.FormatInt(int64(arrival), 10))
	resp, err := c.client.Do(req)
	if err != nil {
		return fmt.Errorf("cluster: replicate post: %w", err)
	}
	defer resp.Body.Close()
	_, _ = io.Copy(io.Discard, io.LimitReader(resp.Body, 1024))
	switch resp.StatusCode {
	case http.StatusAccepted:
		return nil
	case http.StatusUnprocessableEntity:
		// The replica decided the payload for good (a duplicate from a
		// retry or a read-repair, or any other final refusal): quorum-
		// countable, and Permanent, so no upstream hop retries it.
		return resilience.Permanent(ErrRefused)
	}
	return httpapi.ClassifyStatus("cluster: replica", resp)
}

// quorumSuccess reports whether one replica send counts toward W.
func quorumSuccess(err error) bool {
	return err == nil || errors.Is(err, ErrRefused)
}

// Ingest replicates one raw packet to its partition's owners and
// acknowledges (returns nil) only after WriteQuorum of them have durably
// appended it: a payload of one through quorumWrite, so it travels bare
// and each replica answers with the packet's own disposition (a
// duplicate is 422 from POST /ingest). On a missed quorum it returns a
// RetryAfterError carrying the largest hint any replica offered — the
// router's upstream buffers and retries, exactly as it would against a
// single degraded endpoint. Structurally invalid packets are Permanent:
// unsendable anywhere.
func (c *Coordinator) Ingest(ctx context.Context, wire []byte) error {
	return c.quorumWrite(ctx, wire, 1)
}

// IngestBatch replicates a frame of packets to the partitions' owners
// and acknowledges (returns nil) only when EVERY packet in the frame
// has reached its write quorum. Each owner node receives one sub-frame
// holding exactly the packets it owns — stamped with one shared arrival
// time — so a frame of N packets costs at most R HTTP requests and R
// group commits cluster-wide instead of N×R of each; a frame of one
// travels bare, as Ingest's packet does. A replica's 202
// covers its whole sub-frame (the endpoint does not acknowledge a batch
// before the group fsync covering it returns), so sub-frame success
// counts toward every contained packet's quorum.
//
// On a missed quorum the caller retries the whole frame: replicas that
// already hold some packets count them as duplicates, which remain
// quorum-countable, exactly like the single-packet retry path.
func (c *Coordinator) IngestBatch(ctx context.Context, frame []byte) error {
	payload, n, err := batch.Split(frame, 0)
	if err != nil {
		c.rejected.Add(1)
		return resilience.Permanent(err)
	}
	return c.quorumWrite(ctx, payload, n)
}

// quorumWrite is the one replicated write: payload holds n packets (a
// lone packet is its own payload, whatever its length). It routes each
// packet to its owners, sends every owner node one payload under one
// arrival stamp — the lone packet itself, or a sub-frame of the packets
// that node owns — and asks the durability question packet by packet.
// An owner that failed or was skipped while every packet still met W
// counts the packets it missed (cluster_replica_misses_total).
//
// Each owner's payload is built once, at its exact size, by
// ownerPayloads, and sent once; the sends to different owners — and to
// one owner from concurrent frames — overlap (DESIGN.md S45). A missed
// quorum is the caller's to retry, with the largest Retry-After hint any
// replica offered.
//
// Allocations: per payload and per owner node, never per packet; about
// 23 KB for a 256-packet frame over three peers (TestQuorumWriteAllocBudget).
func (c *Coordinator) quorumWrite(ctx context.Context, payload []byte, n int) error {
	// Every packet's preference list, in one slice per payload: New keeps
	// Replicas within [1, peers], so each list is exactly rep long and
	// packet i's starts at owners[i*rep].
	rep := c.cfg.Replicas
	owners := make([]int, 0, n*rep)
	for i := 0; i < n; i++ {
		wire := payload
		if n > 1 {
			wire = batch.Packet(payload, i)
		}
		p, err := telemetry.Parse(wire)
		if err != nil {
			// A structurally invalid packet poisons the frame: the
			// sender's batcher only frames fixed-size packets, so this
			// is corruption or abuse, not weather. Unsendable anywhere.
			c.rejected.Add(1)
			return resilience.Permanent(err)
		}
		owners = c.ring.appendOwners(owners, tsdb.Mix64(p.Device.Uint64()), rep)
	}

	payloads := ownerPayloads(c.clock(), payload, owners, rep, len(c.peers))

	// One concurrent send per owner node: nil means the node accepted its
	// payload before send returned.
	errs := make([]error, len(c.peers))
	var wg sync.WaitGroup
	for node, p := range payloads {
		if p == nil {
			continue
		}
		wg.Add(1)
		go func(node int, p []byte) {
			defer wg.Done()
			c.inflight.Add(1)
			errs[node] = c.send(ctx, node, p)
			c.inflight.Add(-1)
		}(node, p)
	}
	wg.Wait()

	var hint time.Duration
	var lastErr error
	for node := range payloads {
		if payloads[node] == nil || quorumSuccess(errs[node]) {
			continue
		}
		lastErr = errs[node]
		var ra *resilience.RetryAfterError
		if errors.As(errs[node], &ra) && ra.After > hint {
			hint = ra.After
		}
	}

	// Per-packet quorum: a packet is acknowledged iff enough of ITS
	// owners succeeded — node outcomes are shared across the payload, but
	// the durability question is still asked packet by packet.
	acked := 0
	for i := 0; i < n; i++ {
		succ := 0
		for _, node := range owners[i*rep : (i+1)*rep] {
			if quorumSuccess(errs[node]) {
				succ++
			}
		}
		if succ >= c.cfg.WriteQuorum {
			acked++
		}
	}
	if acked == n {
		c.acked.Add(uint64(n))
		if lastErr != nil {
			// Every packet met W without some owner: each packet that
			// owner holds in this payload is one read-repair owes it.
			for _, node := range owners {
				if !quorumSuccess(errs[node]) {
					c.peers[node].misses.Add(1)
				}
			}
		}
		return nil
	}
	// The caller retries the whole payload, so nothing in it counts as
	// acknowledged yet.
	c.noQuorum.Add(uint64(n - acked))
	if hint <= 0 {
		hint = time.Second
	}
	return &resilience.RetryAfterError{After: hint, Err: fmt.Errorf("%w: %d of %d packets short of quorum %d (last: %v)",
		ErrNoQuorum, n-acked, n, c.cfg.WriteQuorum, lastErr)}
}

// History returns one device's merged, repaired history across its
// replicas, bounded to arrival times in [from, to). The merge surveys
// every live owner, unions by sequence number, and — before answering —
// pushes any records a lagging owner is missing back to it, so a node
// recovering from a crash converges by being read. A replica's records
// for one device are identical across nodes (the coordinator stamped
// one arrival), so union-by-seq is exact, not approximate.
func (c *Coordinator) History(ctx context.Context, dev lpwan.EUI64, from, to time.Duration) ([]cloud.ClusterRecord, error) {
	owners := c.ring.Owners(dev, c.cfg.Replicas)

	type survey struct {
		node    int
		records []cloud.ClusterRecord
		err     error
	}
	surveys := make([]survey, 0, len(owners))
	for _, node := range owners {
		if c.det.Down(node) {
			continue
		}
		recs, err := c.fetchHistory(ctx, c.peers[node], dev)
		if err != nil {
			continue
		}
		c.det.Heard(node)
		surveys = append(surveys, survey{node: node, records: recs})
	}
	if len(surveys) == 0 {
		return nil, fmt.Errorf("%w: device %v", ErrUnavailable, dev)
	}

	merged := make(map[uint32]cloud.ClusterRecord)
	for _, sv := range surveys {
		for _, rec := range sv.records {
			if _, ok := merged[rec.Seq]; !ok {
				merged[rec.Seq] = rec
			}
		}
	}
	full := make([]cloud.ClusterRecord, 0, len(merged))
	for _, rec := range merged {
		full = append(full, rec)
	}
	sort.Slice(full, func(i, j int) bool {
		if full[i].AtNanos != full[j].AtNanos {
			return full[i].AtNanos < full[j].AtNanos
		}
		return full[i].Seq < full[j].Seq
	})

	// Read-repair: push each surveyed node the records it lacks.
	for _, sv := range surveys {
		have := make(map[uint32]bool, len(sv.records))
		for _, rec := range sv.records {
			have[rec.Seq] = true
		}
		var missing []cloud.ClusterRecord
		for _, rec := range full {
			if !have[rec.Seq] {
				missing = append(missing, rec)
			}
		}
		if len(missing) == 0 {
			continue
		}
		if err := c.replicate(ctx, c.peers[sv.node], dev, missing); err == nil {
			c.repaired.Add(uint64(len(missing)))
		}
	}

	out := full[:0:0]
	for _, rec := range full {
		if at := time.Duration(rec.AtNanos); at >= from && at < to {
			out = append(out, rec)
		}
	}
	return out, nil
}

func (c *Coordinator) fetchHistory(ctx context.Context, p *peer, dev lpwan.EUI64) ([]cloud.ClusterRecord, error) {
	req, err := http.NewRequestWithContext(ctx, "GET", p.url+"/cluster/history?device="+dev.String(), nil)
	if err != nil {
		return nil, err
	}
	req.Header.Set(cloud.ClusterSecretHeader, c.cfg.Secret)
	resp, err := c.client.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		_, _ = io.Copy(io.Discard, io.LimitReader(resp.Body, 1024))
		return nil, fmt.Errorf("cluster: history status %d from %s", resp.StatusCode, p.url)
	}
	var recs []cloud.ClusterRecord
	if err := json.NewDecoder(resp.Body).Decode(&recs); err != nil {
		return nil, err
	}
	return recs, nil
}

func (c *Coordinator) replicate(ctx context.Context, p *peer, dev lpwan.EUI64, recs []cloud.ClusterRecord) error {
	body, err := json.Marshal(cloud.ReplicatePayload{Device: dev.String(), Records: recs})
	if err != nil {
		return err
	}
	req, err := http.NewRequestWithContext(ctx, "POST", p.url+"/cluster/replicate", bytes.NewReader(body))
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set(cloud.ClusterSecretHeader, c.cfg.Secret)
	resp, err := c.client.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	_, _ = io.Copy(io.Discard, io.LimitReader(resp.Body, 1024))
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("cluster: replicate status %d from %s", resp.StatusCode, p.url)
	}
	return nil
}

// HeartbeatOnce probes every peer's /status once, synchronously, and
// marks each peer that answered heard. Exposed on its own so tests (and
// the chaos harness) can drive detection deterministically; daemons run
// it from RunHeartbeats.
//
// A round gives up on its probes after half of SuspectAfter: a peer that
// has not answered by then is not heard this round, and the round ends.
// Waiting out the slowest probe instead — one hung peer holds it for the
// client's whole timeout — would leave every healthy peer unheard for
// that long, decaying to Suspect or Down between rounds.
func (c *Coordinator) HeartbeatOnce(ctx context.Context) {
	ctx, cancel := context.WithTimeout(ctx, c.cfg.SuspectAfter/2)
	defer cancel()
	var wg sync.WaitGroup
	for i, p := range c.peers {
		wg.Add(1)
		go func(i int, p *peer) {
			defer wg.Done()
			if c.probe(ctx, p) {
				c.det.Heard(i)
			} else {
				c.hbFailures.Add(1)
			}
		}(i, p)
	}
	wg.Wait()
	c.lastHB.Store(int64(c.clock()))
}

func (c *Coordinator) probe(ctx context.Context, p *peer) bool {
	req, err := http.NewRequestWithContext(ctx, "GET", p.url+"/status", nil)
	if err != nil {
		return false
	}
	resp, err := c.client.Do(req)
	if err != nil {
		return false
	}
	defer resp.Body.Close()
	_, _ = io.Copy(io.Discard, io.LimitReader(resp.Body, 4096))
	return resp.StatusCode == http.StatusOK
}

// RunHeartbeats probes every peer on the interval until ctx is
// cancelled. Daemons run this in one goroutine next to their HTTP
// server; it owns no state beyond the detector updates, so cancelling
// the context is a complete shutdown.
func (c *Coordinator) RunHeartbeats(ctx context.Context, every time.Duration) {
	if every <= 0 {
		every = 500 * time.Millisecond
	}
	tick := time.NewTicker(every)
	defer tick.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-tick.C:
			c.HeartbeatOnce(ctx)
		}
	}
}

// RegisterHealth adds the cluster aggregation check to h: healthy when
// every node answers heartbeats, Degraded while any node is down or
// suspect but every partition still has a live owner (the contract is
// served, with reduced margin — the pager must not treat this as a
// total outage), and failing outright only when some partition has zero
// live owners, because then acknowledged durability for those devices'
// partition cannot be extended and reads for them have no source.
func (c *Coordinator) RegisterHealth(h *obs.Health) {
	h.Register("cluster", c.aggregateHealth)
}

// aggregateHealth evaluates the tri-state aggregation from the current
// detector snapshot and records the verdict for /status, so both the
// health check and the status route always serve a fresh opinion.
func (c *Coordinator) aggregateHealth() error {
	states := c.det.Snapshot()
	down := 0
	for _, s := range states {
		if s == StateDown {
			down++
		}
	}
	if down == 0 {
		c.healthState.Store(int32(obs.StatusHealthy))
		return nil
	}
	for _, seg := range c.ring.Segments(c.cfg.Replicas) {
		alive := 0
		for _, node := range seg {
			if states[node] != StateDown {
				alive++
			}
		}
		if alive == 0 {
			c.healthState.Store(int32(obs.StatusFailed))
			return fmt.Errorf("partition %v has no live replica (%d of %d nodes down)", seg, down, len(states))
		}
	}
	c.healthState.Store(int32(obs.StatusDegraded))
	return obs.Degraded(fmt.Errorf("%d of %d nodes down", down, len(states)))
}

// RegisterMetrics exposes the coordinator's counters on reg under the
// cluster_ prefix.
func (c *Coordinator) RegisterMetrics(reg *obs.Registry) {
	reg.CounterFunc("cluster_ingest_acked_total", "packets acknowledged after reaching write quorum", c.acked.Load)
	reg.CounterFunc("cluster_ingest_no_quorum_total", "packets refused because quorum was missed", c.noQuorum.Load)
	reg.CounterFunc("cluster_ingest_rejected_total", "structurally invalid packets refused outright", c.rejected.Load)
	reg.CounterFunc("cluster_read_repair_records_total", "records pushed to lagging replicas by read-repair", c.repaired.Load)
	reg.CounterFunc("cluster_heartbeat_failures_total", "heartbeat probes that did not come back OK", c.hbFailures.Load)
	reg.CounterFunc("cluster_replica_misses_total", "packets acknowledged without one of their owners, summed over owners", func() uint64 {
		var n uint64
		for _, p := range c.peers {
			n += p.misses.Load()
		}
		return n
	})
	reg.GaugeFunc("cluster_replica_sends_inflight", "replica sends in progress, summed over peers", func() float64 {
		return float64(c.inflight.Load())
	})
	reg.GaugeFunc("cluster_nodes_down", "peers the failure detector currently considers down", func() float64 {
		n := 0
		for _, s := range c.det.Snapshot() {
			if s == StateDown {
				n++
			}
		}
		return float64(n)
	})
}

// Stats is the coordinator's counter snapshot.
type Stats struct {
	Acked             uint64 `json:"acked"`
	NoQuorum          uint64 `json:"no_quorum"`
	Rejected          uint64 `json:"rejected"`
	RepairedRecords   uint64 `json:"repaired_records"`
	HeartbeatFailures uint64 `json:"heartbeat_failures"`
}

// Stats returns a snapshot of the coordinator's counters.
func (c *Coordinator) Stats() Stats {
	return Stats{
		Acked:             c.acked.Load(),
		NoQuorum:          c.noQuorum.Load(),
		Rejected:          c.rejected.Load(),
		RepairedRecords:   c.repaired.Load(),
		HeartbeatFailures: c.hbFailures.Load(),
	}
}
