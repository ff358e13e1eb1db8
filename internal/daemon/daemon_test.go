package daemon

import (
	"context"
	"net"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"centuryscale/internal/cloud"
	"centuryscale/internal/gateway"
	"centuryscale/internal/lpwan"
	"centuryscale/internal/telemetry"
)

var master = []byte("integration-master-secret")

// TestEndToEndDatapath runs the real pipeline over loopback:
// sensornode (UDP) -> gatewayd (UDP->HTTP) -> endpointd (HTTP store).
func TestEndToEndDatapath(t *testing.T) {
	// Endpoint.
	store := cloud.NewStore(cloud.StaticKeys(master))
	endpoint := httptest.NewServer(cloud.NewServer(store, time.Now()))
	defer endpoint.Close()

	// Gateway on a loopback UDP socket.
	gw := gateway.New(gateway.Config{ID: "gw-integration"}, &HTTPUplink{URL: endpoint.URL})
	conn, err := net.ListenPacket("udp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	serveDone := make(chan error, 1)
	go func() { serveDone <- ServeUDP(ctx, conn, gw.HandleFrame) }()

	// Sensor node.
	id := lpwan.EUIFromUint64(0xBEEF)
	node := &SensorNode{
		ID:     id,
		Key:    telemetry.DeriveKey(master, id),
		Sensor: telemetry.SensorTemperature,
		Read:   func() float32 { return 21.5 },
	}
	tx, err := net.ListenPacket("udp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer tx.Close()

	start := time.Now()
	for i := 0; i < 5; i++ {
		if err := node.SendOnce(tx, conn.LocalAddr(), start.Add(time.Duration(i)*time.Minute)); err != nil {
			t.Fatal(err)
		}
	}

	// Wait for the datapath to drain.
	deadline := time.Now().Add(5 * time.Second)
	for store.Count() < 5 && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if store.Count() != 5 {
		t.Fatalf("endpoint stored %d of 5 packets", store.Count())
	}

	// The readings verified and carry the device's values.
	hist := store.History(id)
	if len(hist) != 5 {
		t.Fatalf("history length = %d", len(hist))
	}
	for i, r := range hist {
		if r.Packet.Value != 21.5 || r.Packet.Seq != uint32(i+1) {
			t.Fatalf("reading %d = %+v", i, r.Packet)
		}
	}
	if s := gw.Stats(); s.Forwarded != 5 {
		t.Fatalf("gateway stats = %+v", s)
	}

	cancel()
	if err := <-serveDone; err != nil {
		t.Fatalf("ServeUDP: %v", err)
	}
}

func TestGatewayDropsForgedTraffic(t *testing.T) {
	store := cloud.NewStore(cloud.StaticKeys(master))
	endpoint := httptest.NewServer(cloud.NewServer(store, time.Now()))
	defer endpoint.Close()

	gw := gateway.New(gateway.Config{ID: "gw"}, &HTTPUplink{URL: endpoint.URL})
	conn, err := net.ListenPacket("udp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	go func() { _ = ServeUDP(ctx, conn, gw.HandleFrame) }()

	tx, err := net.ListenPacket("udp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer tx.Close()

	// Garbage datagram: dropped at the gateway (bad frame).
	if _, err := tx.WriteTo([]byte("not a frame"), conn.LocalAddr()); err != nil {
		t.Fatal(err)
	}
	// Valid frame, forged payload signature: forwarded by the open
	// gateway (it routes, it doesn't judge) but rejected at the endpoint.
	id := lpwan.EUIFromUint64(0xBAD)
	forged := telemetry.Packet{Device: id, Seq: 1}
	payload, err := forged.Seal(telemetry.Key("wrong-key-wrong-key-wrong-key!!!"))
	if err != nil {
		t.Fatal(err)
	}
	frame, err := (lpwan.Frame{Type: lpwan.FrameData, Source: id, Seq: 1, Payload: payload}).Encode()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tx.WriteTo(frame, conn.LocalAddr()); err != nil {
		t.Fatal(err)
	}

	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		st := store.Stats()
		gs := gw.Stats()
		if st.BadSignature >= 1 && gs.DropMalformed >= 1 {
			if st.Accepted != 0 {
				t.Fatalf("forged packet accepted: %+v", st)
			}
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("forged traffic not fully processed: store=%+v gw=%+v", store.Stats(), gw.Stats())
}

func TestHTTPUplinkErrors(t *testing.T) {
	// A dead endpoint must surface as an error.
	u := &HTTPUplink{URL: "http://127.0.0.1:1", Client: &http.Client{Timeout: 200 * time.Millisecond}}
	if err := u.Send([]byte("x")); err == nil {
		t.Fatal("send to dead endpoint succeeded")
	}
	// A 500 endpoint must surface as an error.
	bad := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.WriteHeader(http.StatusInternalServerError)
	}))
	defer bad.Close()
	u = &HTTPUplink{URL: bad.URL}
	if err := u.Send([]byte("x")); err == nil {
		t.Fatal("500 treated as success")
	}
}

func TestSensorNodeSeqAdvances(t *testing.T) {
	id := lpwan.EUIFromUint64(1)
	n := &SensorNode{ID: id, Key: telemetry.DeriveKey(master, id), Sensor: telemetry.SensorStrain}
	now := time.Now()
	for want := uint32(1); want <= 3; want++ {
		wire, err := n.BuildFrame(now.Add(time.Duration(want) * time.Second))
		if err != nil {
			t.Fatal(err)
		}
		f, err := lpwan.Decode(wire)
		if err != nil {
			t.Fatal(err)
		}
		p, err := telemetry.Verify(f.Payload, telemetry.DeriveKey(master, id))
		if err != nil {
			t.Fatal(err)
		}
		if p.Seq != want {
			t.Fatalf("seq = %d, want %d", p.Seq, want)
		}
	}
}

func TestSensorNodeRunRequiresInterval(t *testing.T) {
	n := &SensorNode{}
	if err := n.Run(context.Background(), nil, nil); err == nil {
		t.Fatal("zero interval accepted")
	}
}

func TestSensorNodeRunLoop(t *testing.T) {
	// Drive the ticker loop for a few intervals against a live gateway.
	store := cloud.NewStore(cloud.StaticKeys(master))
	endpoint := httptest.NewServer(cloud.NewServer(store, time.Now()))
	defer endpoint.Close()
	gw := gateway.New(gateway.Config{ID: "gw"}, &HTTPUplink{URL: endpoint.URL})
	conn, err := net.ListenPacket("udp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	go func() { _ = ServeUDP(ctx, conn, gw.HandleFrame) }()

	id := lpwan.EUIFromUint64(0xA1)
	node := &SensorNode{
		ID:       id,
		Key:      telemetry.DeriveKey(master, id),
		Sensor:   telemetry.SensorVibration,
		Interval: 20 * time.Millisecond,
	}
	tx, err := net.ListenPacket("udp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer tx.Close()

	runCtx, stopRun := context.WithCancel(context.Background())
	runDone := make(chan error, 1)
	go func() { runDone <- node.Run(runCtx, tx, conn.LocalAddr()) }()

	deadline := time.Now().Add(5 * time.Second)
	for store.Count() < 3 && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	stopRun()
	if err := <-runDone; err != nil {
		t.Fatalf("Run: %v", err)
	}
	if store.Count() < 3 {
		t.Fatalf("stored %d packets from the run loop", store.Count())
	}
}

func TestServeUDPReturnsOnClose(t *testing.T) {
	gw := gateway.New(gateway.Config{ID: "gw"}, gateway.UplinkFunc(func([]byte) error { return nil }))
	conn, err := net.ListenPacket("udp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- ServeUDP(context.Background(), conn, gw.HandleFrame) }()
	time.Sleep(20 * time.Millisecond)
	conn.Close()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("ServeUDP after close: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("ServeUDP did not return after socket close")
	}
}
