package daemon

import (
	"context"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"centuryscale/internal/batch"
	"centuryscale/internal/cloud"
	"centuryscale/internal/lpwan"
	"centuryscale/internal/resilience"
	"centuryscale/internal/telemetry"
	"centuryscale/internal/tsdb"
)

// TestKillRecoverBatchedZeroAcknowledgedLoss is the batched-frame twin
// of TestKillRecoverZeroAcknowledgedLoss: the uplink runs with -batch
// style frame building, so acknowledgements arrive per frame and the
// endpoint's durability unit is the WAL group commit. The hard kill
// lands between group fsyncs, with frames in every intermediate state —
// acknowledged, in flight, pending in the builder, buffered in the
// queue.
//
// The contract under test: a frame the endpoint acknowledged (202) had
// its group fsync complete first, so no packet of any acknowledged
// frame is lost across the kill; frames whose acknowledgement died with
// the connection are retried whole and deduplicated by the replay guard
// rebuilt from the WAL. Every sequence number ends up stored exactly
// once — group commit must be all-or-nothing per ack, never "some of
// the frame was durable".
func TestKillRecoverBatchedZeroAcknowledgedLoss(t *testing.T) {
	const packets = 96
	const killAfter = 32 // hard-kill once this many are acknowledged
	const frameSize = 8

	dir := t.TempDir()
	start := time.Now()

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
			BatchSize:   frameSize,
			BatchAge:    5 * time.Millisecond,
		})
	defer up.Close(context.Background())

	dev := lpwan.EUIFromUint64(0xBA7C)
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
	// are acknowledged — whole frames, each behind one group fsync.
	seq := uint32(1)
	for ; seq <= killAfter; seq++ {
		send(seq)
	}
	deadline := time.Now().Add(10 * time.Second)
	for store1.Count() < killAfter && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	if store1.Count() < killAfter {
		t.Fatalf("first instance stored %d of %d before kill (uplink %+v)", store1.Count(), killAfter, up.Stats())
	}
	if store1.BatchFrames() == 0 {
		t.Fatalf("acknowledged traffic never used the batch path: %+v", up.Stats())
	}

	// Hard kill between group fsyncs: listener and connections die,
	// store1's WAL handles are abandoned unclosed.
	if err := srv1.Close(); err != nil {
		t.Fatal(err)
	}

	// Phase 2: the device keeps transmitting into the outage. Frames
	// accumulate in the builder and, once full, buffer in the queue —
	// nothing is acknowledged, nothing surfaces as lost.
	for ; seq <= killAfter+2*frameSize; seq++ {
		send(seq)
		time.Sleep(time.Millisecond)
	}
	if st := up.Stats(); st.Buffered == 0 && st.PendingPackets == 0 {
		t.Fatalf("outage never forced buffering: %+v", st)
	}

	// Instance 2: recover from the WAL alone. Replay must hold every
	// acknowledged reading — an acknowledged frame's fsync preceded its
	// 202 — and nothing torn: Kept is a multiple of nothing in
	// particular (frames interleave shards), but >= killAfter always.
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

	// Phase 3: the rest of the stream flows into the recovered instance.
	// Flush drives the pending part-frame and the queued frames out.
	for ; seq <= packets; seq++ {
		send(seq)
	}
	flushCtx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer cancel()
	if err := up.Flush(flushCtx); err != nil {
		t.Fatalf("uplink flush: %v (stats %+v)", err, up.Stats())
	}

	// Zero acknowledged loss, exactly once — including frames that were
	// retried whole after their ack died with the first instance.
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

// TestKillBetweenAppendAndFlush lands the kill where the shared log made
// a new place to die: after a frame's records are in the log buffer and
// the memtable, before the flush that makes them durable. Senders offer
// frames without pause, so at any instant some frame is in exactly that
// state; the test takes crash images of the data directory mid-traffic —
// what a SIGKILL at that instant leaves behind, the page cache being the
// kernel's and not the process's — and boots an endpoint from each.
// Senders come in pairs offering the same frames (two gateways hearing
// one device), so half the acknowledgements are for frames made of
// duplicates whose originals another frame appended moments before.
//
// The contract: a packet acknowledged before the image was taken is in
// it — acknowledged as accepted or as a duplicate, under either fsync
// policy (under interval an acknowledgement means written, which is what
// survives a kill); an unacknowledged packet may or may not be; no
// packet comes back twice.
func TestKillBetweenAppendAndFlush(t *testing.T) {
	for _, policy := range []tsdb.SyncPolicy{tsdb.SyncAlways, tsdb.SyncInterval} {
		t.Run(policy.String(), func(t *testing.T) {
			const senders, devicesEach, frames, images = 4, 8, 60, 5
			dir := t.TempDir()
			db, err := tsdb.Open(tsdb.Options{Dir: dir, Shards: 4, Sync: policy, SegmentBytes: 4096, Logf: t.Logf})
			if err != nil {
				t.Fatal(err)
			}
			store := cloud.NewStoreWithDB(cloud.StaticKeys(master), db)
			defer store.Close()

			// Every frame is sealed up front; senders 2k and 2k+1 share
			// devices k*devicesEach+1..., and frame f carries seq f+1 of each.
			type packet struct {
				dev lpwan.EUI64
				seq uint32
			}
			sealedFrames := make([][][]byte, senders)
			for g := range sealedFrames {
				sealedFrames[g] = make([][]byte, frames)
				for f := range sealedFrames[g] {
					wires := make([][]byte, devicesEach)
					for d := range wires {
						dev := lpwan.EUIFromUint64(uint64(g/2*devicesEach + d + 1))
						wires[d], err = telemetry.Packet{Device: dev, Seq: uint32(f + 1), Sensor: telemetry.SensorStrain, Value: float32(f)}.
							Seal(telemetry.DeriveKey(master, dev))
						if err != nil {
							t.Fatal(err)
						}
					}
					if sealedFrames[g][f], err = batch.AppendFrame(nil, wires...); err != nil {
						t.Fatal(err)
					}
				}
			}

			var mu sync.Mutex
			var acked []packet
			var wg sync.WaitGroup
			for g := 0; g < senders; g++ {
				wg.Add(1)
				go func(g int) {
					defer wg.Done()
					for f, frame := range sealedFrames[g] {
						res, err := store.IngestBatch(time.Duration(f+1)*time.Second, frame)
						if err != nil || res.Accepted+res.Duplicates != devicesEach {
							t.Errorf("sender %d frame %d: %+v, %v", g, f, res, err)
							return
						}
						mu.Lock()
						for d := 0; d < devicesEach; d++ {
							acked = append(acked, packet{lpwan.EUIFromUint64(uint64(g/2*devicesEach + d + 1)), uint32(f + 1)})
						}
						mu.Unlock()
					}
				}(g)
			}

			type image struct {
				dir   string
				acked []packet // acknowledged before the copy began
			}
			var taken []image
			for i := 0; i < images; i++ {
				mu.Lock()
				before := append([]packet(nil), acked...)
				mu.Unlock()
				img := filepath.Join(t.TempDir(), "wal")
				copyDir(t, filepath.Join(dir, "wal"), img)
				taken = append(taken, image{filepath.Dir(img), before})
				time.Sleep(time.Millisecond) // spread the images over the run; nothing waits on this
			}
			wg.Wait()

			for i, img := range taken {
				re, err := tsdb.Open(tsdb.Options{Dir: img.dir, Shards: 4, Sync: policy, Logf: t.Logf})
				if err != nil {
					t.Fatal(err)
				}
				booted := cloud.NewStoreWithDB(cloud.StaticKeys(master), re)
				if _, err := booted.ReplayWAL(); err != nil {
					t.Fatal(err)
				}
				held := make(map[packet]int)
				for _, dev := range booted.Devices() {
					for _, r := range booted.History(dev) {
						held[packet{dev, r.Packet.Seq}]++
					}
				}
				for _, p := range img.acked {
					if held[p] != 1 {
						t.Errorf("image %d: acknowledged %v seq %d came back %d times", i, p.dev, p.seq, held[p])
					}
				}
				for p, n := range held {
					if n != 1 {
						t.Errorf("image %d: %v seq %d came back %d times", i, p.dev, p.seq, n)
					}
				}
				booted.Close()
			}
		})
	}
}

// copyDir copies src's regular files into dst as they read right now.
func copyDir(t *testing.T, src, dst string) {
	t.Helper()
	if err := os.MkdirAll(dst, 0o755); err != nil {
		t.Fatal(err)
	}
	entries, err := os.ReadDir(src)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		data, err := os.ReadFile(filepath.Join(src, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dst, e.Name()), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
}
