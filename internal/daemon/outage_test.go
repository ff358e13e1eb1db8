package daemon

import (
	"context"
	"net"
	"net/http"
	"net/http/httptest"
	"slices"
	"testing"
	"time"

	"centuryscale/internal/chaos"
	"centuryscale/internal/cloud"
	"centuryscale/internal/gateway"
	"centuryscale/internal/helium"
	"centuryscale/internal/lpwan"
	"centuryscale/internal/resilience"
	"centuryscale/internal/telemetry"
)

// TestResilientDatapathZeroLossAcrossOutage is the acceptance test for
// the resilient datapath: the full loopback pipeline (sensornode UDP ->
// gatewayd -> endpointd) with a seeded chaos schedule that takes the
// endpoint down mid-stream — a hard outage window plus random
// connection drops — while the device keeps transmitting. Every packet
// the gateway accepts must land in the store exactly once: buffered
// during the outage, drained in order on recovery, no duplicates beyond
// the endpoint's existing dedup. Time is compressed (milliseconds where
// production uses seconds); with production backoff settings the same
// schedule spans a multi-minute outage.
func TestResilientDatapathZeroLossAcrossOutage(t *testing.T) {
	const packets = 40

	store := cloud.NewStore(cloud.StaticKeys(master))
	endpoint := httptest.NewServer(cloud.NewServer(store, time.Now()))
	defer endpoint.Close()

	chaosCfg := chaos.Config{
		Seed:        0xC0FFEE,
		OutageAfter: 8,  // outage begins mid-stream, after 8 requests
		OutageLen:   30, // and swallows the next 30
		DropProb:    0.05,
	}
	rt := chaos.NewRoundTripper(nil, chaosCfg)
	inner := &HTTPUplink{URL: endpoint.URL, Client: &http.Client{Transport: rt, Timeout: 2 * time.Second}}
	up := resilience.NewUplink(inner, resilience.Config{
		BackoffBase: time.Millisecond,
		BackoffMax:  10 * time.Millisecond,
		QueueDepth:  256,
		Seed:        7,
	})
	defer up.Close(context.Background())

	gw := gateway.New(gateway.Config{ID: "gw-chaos"}, up)
	conn, err := net.ListenPacket("udp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	serveDone := make(chan error, 1)
	go func() { serveDone <- ServeUDP(ctx, conn, gw.HandleFrame) }()

	id := lpwan.EUIFromUint64(0xCAFE)
	node := &SensorNode{
		ID:     id,
		Key:    telemetry.DeriveKey(master, id),
		Sensor: telemetry.SensorStrain,
		Read:   func() float32 { return 3.14 },
	}
	tx, err := net.ListenPacket("udp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer tx.Close()

	start := time.Now()
	for i := 0; i < packets; i++ {
		if err := node.SendOnce(tx, conn.LocalAddr(), start.Add(time.Duration(i)*time.Minute)); err != nil {
			t.Fatal(err)
		}
		// A short cadence keeps transmissions flowing through the whole
		// outage window rather than arriving in one burst.
		time.Sleep(2 * time.Millisecond)
	}

	// Zero loss: every accepted packet is eventually stored.
	deadline := time.Now().Add(30 * time.Second)
	for store.Count() < packets && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if store.Count() != packets {
		t.Fatalf("stored %d of %d (uplink %+v, chaos %+v)",
			store.Count(), packets, up.Stats(), rt.Injector().Stats())
	}

	// Exactly once: all sequence numbers present, none twice.
	hist := store.History(id)
	if len(hist) != packets {
		t.Fatalf("history length = %d", len(hist))
	}
	seen := make(map[uint32]int)
	for _, r := range hist {
		seen[r.Packet.Seq]++
	}
	for seq := uint32(1); seq <= packets; seq++ {
		if seen[seq] != 1 {
			t.Fatalf("seq %d stored %d times", seq, seen[seq])
		}
	}
	if st := store.Stats(); st.Duplicates != 0 || st.Accepted != packets {
		t.Fatalf("endpoint stats = %+v", st)
	}

	// The outage really happened and really exercised the machinery.
	ust := up.Stats()
	if ust.Queue.Enqueued == 0 {
		t.Fatalf("outage never forced buffering: %+v", ust)
	}
	if ust.Drained == 0 {
		t.Fatalf("the drain loop delivered nothing: %+v", ust)
	}
	if ust.Queue.DroppedOldest != 0 {
		t.Fatalf("store-and-forward overflowed: %+v", ust)
	}
	cst := rt.Injector().Stats()
	if cst.Outages != uint64(chaosCfg.OutageLen) {
		t.Fatalf("outage window partially consumed: %+v", cst)
	}

	// Determinism: the schedule this run actually experienced is exactly
	// what the seed predicts, bit for bit — rerunning with the same seed
	// replays the same faults at the same request indices.
	history := rt.Injector().History()
	if !slices.Equal(history, chaos.Plan(chaosCfg, len(history))) {
		t.Fatal("injected fault schedule diverges from the seeded plan")
	}

	cancel()
	if err := <-serveDone; err != nil {
		t.Fatalf("ServeUDP: %v", err)
	}
	flushCtx, flushCancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer flushCancel()
	if err := up.Close(flushCtx); err != nil {
		t.Fatalf("uplink close: %v", err)
	}
}

// TestResilientHotspotPathBuffersRouterOutage covers the third-party
// path: a RouterUplink wrapped in resilience survives a router outage
// without losing frames.
func TestResilientHotspotPathBuffersRouterOutage(t *testing.T) {
	const frames = 12
	fleetMaster := []byte("fleet-master-secret")
	store := cloud.NewStore(cloud.StaticKeys(fleetMaster))
	wallet := helium.NewWallet(1000)
	router, err := helium.NewRouter(abpMaster, wallet)
	if err != nil {
		t.Fatal(err)
	}
	routerSrv := httptest.NewServer(RouterHandler(router, func(p []byte) error {
		return store.Ingest(time.Hour, p)
	}))
	defer routerSrv.Close()

	chaosCfg := chaos.Config{Seed: 99, OutageAfter: 3, OutageLen: 10}
	rt := chaos.NewRoundTripper(nil, chaosCfg)
	up := resilience.NewUplink(
		&RouterUplink{URL: routerSrv.URL, Client: &http.Client{Transport: rt, Timeout: 2 * time.Second}},
		resilience.Config{
			BackoffBase: time.Millisecond,
			BackoffMax:  5 * time.Millisecond,
			QueueDepth:  64,
			Seed:        3,
		})
	defer up.Close(context.Background())

	conn, err := net.ListenPacket("udp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	hotspotDone := make(chan error, 1)
	go func() { hotspotDone <- ServeUDP(ctx, conn, up.Send) }()

	id := lpwan.EUIFromUint64(0x88)
	tx, err := net.ListenPacket("udp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer tx.Close()
	for seq := uint32(1); seq <= frames; seq++ {
		inner, err := telemetry.Packet{
			Device: id, Seq: seq, Sensor: telemetry.SensorVibration, Value: float32(seq),
		}.Seal(telemetry.DeriveKey(fleetMaster, id))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := tx.WriteTo(lorawanFrame(t, 0x88, uint16(seq), inner), conn.LocalAddr()); err != nil {
			t.Fatal(err)
		}
		time.Sleep(2 * time.Millisecond)
	}

	deadline := time.Now().Add(30 * time.Second)
	for store.Count() < frames && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if store.Count() != frames {
		t.Fatalf("stored %d of %d (uplink %+v)", store.Count(), frames, up.Stats())
	}
	if ust := up.Stats(); ust.Queue.Enqueued == 0 {
		t.Fatalf("router outage never forced buffering: %+v", ust)
	}

	cancel()
	if err := <-hotspotDone; err != nil {
		t.Fatalf("hotspot: %v", err)
	}
}
