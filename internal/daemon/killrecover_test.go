package daemon

import (
	"context"
	"net"
	"net/http"
	"testing"
	"time"

	"centuryscale/internal/cloud"
	"centuryscale/internal/lpwan"
	"centuryscale/internal/resilience"
	"centuryscale/internal/telemetry"
	"centuryscale/internal/tsdb"
)

// TestKillRecoverZeroAcknowledgedLoss is the acceptance test for the
// WAL: endpointd is hard-killed mid-traffic — listener and every live
// connection torn down, the store abandoned without any orderly close,
// exactly as a power cut would leave it — then a second instance boots
// on the same data directory, replays the WAL, and takes over the same
// address. A resilient uplink (the PR 1 datapath) keeps transmitting
// throughout, buffering across the outage.
//
// The contract under test: with -wal-fsync=always, a reading the
// endpoint acknowledged (HTTP 202) is on stable storage before the
// acknowledgement, so no acknowledged reading is lost across the kill;
// and the replay guard rebuilt from the WAL dedups retries of readings
// whose acknowledgement died with the connection. Every sequence number
// ends up stored exactly once.
func TestKillRecoverZeroAcknowledgedLoss(t *testing.T) {
	const packets = 60
	const killAfter = 20 // hard-kill once this many are acknowledged

	dir := t.TempDir()
	start := time.Now()

	// open boots an endpoint store on the shared data directory with
	// per-append fsync (the ack-durability configuration) and replays
	// whatever the WAL holds.
	open := func() (*cloud.Store, tsdb.ReplayStats) {
		t.Helper()
		db, err := tsdb.Open(tsdb.Options{Dir: dir, Shards: 4, Sync: tsdb.SyncAlways, Logf: t.Logf})
		if err != nil {
			t.Fatal(err)
		}
		store := cloud.NewStoreWithDB(cloud.StaticKeys(master), db)
		rs, err := store.ReplayWAL()
		if err != nil {
			t.Fatal(err)
		}
		return store, rs
	}

	// Instance 1: bind explicitly so the address can be reclaimed by
	// instance 2 after the kill.
	ln1, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	endpointAddr := ln1.Addr().String()
	store1, _ := open()
	srv1 := &http.Server{Handler: cloud.NewServer(store1, start)}
	go srv1.Serve(ln1)

	up := resilience.NewUplink(
		&HTTPUplink{URL: "http://" + endpointAddr, Client: &http.Client{Timeout: 2 * time.Second}},
		resilience.Config{
			BackoffBase: time.Millisecond,
			BackoffMax:  10 * time.Millisecond,
			QueueDepth:  256,
			Seed:        11,
		})
	defer up.Close(context.Background())

	dev := lpwan.EUIFromUint64(0xDEAD)
	key := telemetry.DeriveKey(master, dev)
	send := func(seq uint32) {
		t.Helper()
		wire, err := telemetry.Packet{Device: dev, Seq: seq, Sensor: telemetry.SensorStrain, Value: float32(seq)}.Seal(key)
		if err != nil {
			t.Fatal(err)
		}
		if err := up.Send(wire); err != nil {
			t.Fatalf("seq %d surfaced permanent error: %v", seq, err)
		}
	}

	// Phase 1: traffic into the first instance until killAfter readings
	// are acknowledged and stored.
	seq := uint32(1)
	for ; seq <= killAfter; seq++ {
		send(seq)
	}
	deadline := time.Now().Add(10 * time.Second)
	for store1.Count() < killAfter && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	if store1.Count() < killAfter {
		t.Fatalf("first instance stored %d of %d before kill", store1.Count(), killAfter)
	}

	// Hard kill: the listener and every live connection die at once.
	// store1 is deliberately NOT closed — its WAL file handles are
	// simply abandoned, the way a crashed process leaves them.
	if err := srv1.Close(); err != nil {
		t.Fatal(err)
	}

	// Phase 2: the device keeps transmitting into the outage. The
	// uplink buffers (connection refused is transient) — nothing is
	// acknowledged, nothing surfaces as lost.
	for ; seq <= killAfter+10; seq++ {
		send(seq)
		time.Sleep(time.Millisecond)
	}
	if up.QueueLen() == 0 {
		t.Fatalf("outage never forced buffering: %+v", up.Stats())
	}

	// Instance 2: boot on the same data directory, recover from the WAL
	// alone, and take over the same address (retrying briefly while the
	// kernel releases it).
	store2, rs := open()
	defer store2.Close()
	if rs.Kept < killAfter {
		t.Fatalf("WAL replay recovered %d of %d acknowledged readings", rs.Kept, killAfter)
	}
	var ln2 net.Listener
	for attempt := time.Now().Add(5 * time.Second); ; {
		ln2, err = net.Listen("tcp", endpointAddr)
		if err == nil {
			break
		}
		if time.Now().After(attempt) {
			t.Fatalf("rebind %s: %v", endpointAddr, err)
		}
		time.Sleep(5 * time.Millisecond)
	}
	srv2 := &http.Server{Handler: cloud.NewServer(store2, start)}
	go srv2.Serve(ln2)
	defer srv2.Close()

	// Phase 3: the rest of the stream flows into the recovered
	// instance, behind whatever is still buffered.
	for ; seq <= packets; seq++ {
		send(seq)
	}
	flushCtx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer cancel()
	if err := up.Flush(flushCtx); err != nil {
		t.Fatalf("uplink flush: %v (stats %+v)", err, up.Stats())
	}

	// Zero acknowledged loss, exactly once: every sequence number the
	// device ever sent is present in the recovered instance, none twice
	// — the pre-kill readings via WAL replay, the rest via the drain.
	if got := store2.Count(); got != packets {
		t.Fatalf("recovered instance holds %d of %d readings (uplink %+v)", got, packets, up.Stats())
	}
	seen := make(map[uint32]int)
	for _, r := range store2.History(dev) {
		seen[r.Packet.Seq]++
	}
	for s := uint32(1); s <= packets; s++ {
		if seen[s] != 1 {
			t.Fatalf("seq %d stored %d times after recovery", s, seen[s])
		}
	}
}
