package daemon

import (
	"bytes"
	"context"
	"net"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"centuryscale/internal/cloud"
	"centuryscale/internal/helium"
	"centuryscale/internal/lorawan"
	"centuryscale/internal/lpwan"
	"centuryscale/internal/telemetry"
)

var abpMaster = []byte("0123456789abcdef")

func lorawanFrame(t *testing.T, devAddr uint32, fcnt uint16, payload []byte) []byte {
	t.Helper()
	nwk, app, err := lorawan.SessionKeys(abpMaster, devAddr)
	if err != nil {
		t.Fatal(err)
	}
	wire, err := (lorawan.Uplink{DevAddr: devAddr, FCnt: fcnt, FPort: 1, Payload: payload}).Encode(nwk, app)
	if err != nil {
		t.Fatal(err)
	}
	return wire
}

func TestRouterHandlerHappyPath(t *testing.T) {
	wallet := helium.NewWallet(10)
	router, err := helium.NewRouter(abpMaster, wallet)
	if err != nil {
		t.Fatal(err)
	}
	var delivered [][]byte
	srv := httptest.NewServer(RouterHandler(router, func(p []byte) error {
		delivered = append(delivered, append([]byte(nil), p...))
		return nil
	}))
	defer srv.Close()

	resp, err := http.Post(srv.URL+"/uplink", "application/octet-stream",
		bytes.NewReader(lorawanFrame(t, 0x99, 1, []byte("payload"))))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	if len(delivered) != 1 || string(delivered[0]) != "payload" {
		t.Fatalf("delivered = %q", delivered)
	}
	if wallet.Balance() != 9 {
		t.Fatalf("wallet = %d", wallet.Balance())
	}
}

func TestRouterHandlerPaymentRequired(t *testing.T) {
	router, _ := helium.NewRouter(abpMaster, helium.NewWallet(0))
	srv := httptest.NewServer(RouterHandler(router, nil))
	defer srv.Close()
	resp, err := http.Post(srv.URL+"/uplink", "application/octet-stream",
		bytes.NewReader(lorawanFrame(t, 0x99, 1, []byte("x"))))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusPaymentRequired {
		t.Fatalf("status = %d, want 402", resp.StatusCode)
	}
}

func TestRouterHandlerRejectsGarbage(t *testing.T) {
	router, _ := helium.NewRouter(abpMaster, helium.NewWallet(10))
	srv := httptest.NewServer(RouterHandler(router, nil))
	defer srv.Close()
	resp, err := http.Post(srv.URL+"/uplink", "application/octet-stream",
		bytes.NewReader([]byte("not lorawan")))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusUnprocessableEntity {
		t.Fatalf("status = %d", resp.StatusCode)
	}
}

// TestThirdPartyEndToEnd runs the complete third-party datapath over
// loopback: sealed telemetry inside a LoRaWAN frame, UDP to a dumb
// hotspot, HTTP to the router, decrypted payload into the cloud store.
func TestThirdPartyEndToEnd(t *testing.T) {
	fleetMaster := []byte("fleet-master-secret")
	store := cloud.NewStore(cloud.StaticKeys(fleetMaster))
	wallet := helium.NewWallet(100)
	router, err := helium.NewRouter(abpMaster, wallet)
	if err != nil {
		t.Fatal(err)
	}
	routerSrv := httptest.NewServer(RouterHandler(router, func(p []byte) error {
		return store.Ingest(time.Hour, p)
	}))
	defer routerSrv.Close()

	// Hotspot: UDP in, HTTP out.
	conn, err := net.ListenPacket("udp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	hotspotDone := make(chan error, 1)
	go func() { hotspotDone <- ServeUDP(ctx, conn, (&RouterUplink{URL: routerSrv.URL}).Send) }()

	// Device: telemetry inside LoRaWAN, fired at the hotspot.
	id := lpwan.EUIFromUint64(0x77)
	tx, err := net.ListenPacket("udp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer tx.Close()
	for seq := uint32(1); seq <= 3; seq++ {
		inner, err := telemetry.Packet{
			Device: id, Seq: seq, Sensor: telemetry.SensorStrain, Value: float32(seq),
		}.Seal(telemetry.DeriveKey(fleetMaster, id))
		if err != nil {
			t.Fatal(err)
		}
		frame := lorawanFrame(t, 0x77, uint16(seq), inner)
		if _, err := tx.WriteTo(frame, conn.LocalAddr()); err != nil {
			t.Fatal(err)
		}
	}

	deadline := time.Now().Add(5 * time.Second)
	for store.Count() < 3 && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if store.Count() != 3 {
		t.Fatalf("stored %d of 3", store.Count())
	}
	if wallet.Balance() != 97 {
		t.Fatalf("wallet = %d", wallet.Balance())
	}
	hist := store.History(id)
	if len(hist) != 3 || hist[2].Packet.Value != 3 {
		t.Fatalf("history = %+v", hist)
	}

	cancel()
	if err := <-hotspotDone; err != nil {
		t.Fatalf("hotspot: %v", err)
	}
}

func TestSensorNodeLoRaWANMode(t *testing.T) {
	fleetMaster := []byte("fleet-master-secret")
	id := lpwan.EUIFromUint64(0x55)
	sess, err := NewLoRaWANSession(abpMaster, 0x55)
	if err != nil {
		t.Fatal(err)
	}
	node := &SensorNode{
		ID:      id,
		Key:     telemetry.DeriveKey(fleetMaster, id),
		Sensor:  telemetry.SensorHumidity,
		LoRaWAN: sess,
	}
	wire, err := node.BuildFrame(time.Now())
	if err != nil {
		t.Fatal(err)
	}
	// The frame is a genuine LoRaWAN uplink the router accepts.
	router, _ := helium.NewRouter(abpMaster, helium.NewWallet(5))
	payload, err := router.HandleUplink(wire)
	if err != nil {
		t.Fatalf("router rejected sensornode frame: %v", err)
	}
	p, err := telemetry.Verify(payload, telemetry.DeriveKey(fleetMaster, id))
	if err != nil {
		t.Fatal(err)
	}
	if p.Seq != 1 || p.Sensor != telemetry.SensorHumidity {
		t.Fatalf("packet = %+v", p)
	}
}
