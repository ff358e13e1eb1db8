package daemon

// ServeUDP edge cases: malformed-datagram accounting, the two clean
// return paths (context cancel vs socket closure) versus a genuine
// socket error, and oversized datagrams that truncate at the read
// buffer.

import (
	"context"
	"errors"
	"net"
	"testing"
	"time"

	"centuryscale/internal/gateway"
	"centuryscale/internal/lpwan"
	"centuryscale/internal/telemetry"
)

func startGatewayUDP(t *testing.T, up gateway.Uplink) (*gateway.Gateway, net.PacketConn, context.CancelFunc, chan error) {
	t.Helper()
	gw := gateway.New(gateway.Config{ID: "gw-edge"}, up)
	conn, err := net.ListenPacket("udp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- ServeUDP(ctx, conn, gw.HandleFrame) }()
	return gw, conn, cancel, done
}

func TestServeUDPCountsMalformedDatagrams(t *testing.T) {
	gw, conn, cancel, done := startGatewayUDP(t, gateway.UplinkFunc(func([]byte) error { return nil }))
	defer cancel()

	tx, err := net.ListenPacket("udp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer tx.Close()

	garbage := [][]byte{
		{},                               // empty datagram
		{0x01},                           // single byte
		[]byte("definitely not a frame"), // junk text
		make([]byte, 100),                // zeroed block
	}
	for _, g := range garbage {
		if _, err := tx.WriteTo(g, conn.LocalAddr()); err != nil {
			t.Fatal(err)
		}
	}
	// One valid frame proves the loop survived the garbage.
	id := lpwan.EUIFromUint64(0xE1)
	node := &SensorNode{ID: id, Key: telemetry.DeriveKey(master, id), Sensor: telemetry.SensorTemperature}
	if err := node.SendOnce(tx, conn.LocalAddr(), time.Now()); err != nil {
		t.Fatal(err)
	}

	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		s := gw.Stats()
		if s.DropMalformed == uint64(len(garbage)) && s.Forwarded == 1 {
			break
		}
		time.Sleep(10 * time.Millisecond)
	}
	if s := gw.Stats(); s.DropMalformed != uint64(len(garbage)) || s.Forwarded != 1 {
		t.Fatalf("stats = %+v, want %d malformed and 1 forwarded", s, len(garbage))
	}

	cancel()
	if err := <-done; err != nil {
		t.Fatalf("ServeUDP: %v", err)
	}
}

func TestServeUDPOversizedDatagramDropsAsMalformed(t *testing.T) {
	gw, conn, cancel, done := startGatewayUDP(t, gateway.UplinkFunc(func([]byte) error { return nil }))
	defer cancel()

	tx, err := net.ListenPacket("udp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer tx.Close()

	// 4 KiB datagram: larger than the 2 KiB read buffer, so the kernel
	// truncates it and the remainder never parses as a frame.
	big := make([]byte, 4096)
	for i := range big {
		big[i] = byte(i)
	}
	if _, err := tx.WriteTo(big, conn.LocalAddr()); err != nil {
		t.Fatal(err)
	}

	deadline := time.Now().Add(5 * time.Second)
	for gw.Stats().DropMalformed == 0 && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	s := gw.Stats()
	if s.DropMalformed != 1 || s.Forwarded != 0 {
		t.Fatalf("stats = %+v, want the oversized datagram counted malformed", s)
	}

	cancel()
	if err := <-done; err != nil {
		t.Fatalf("ServeUDP: %v", err)
	}
}

func TestServeUDPContextCancelReturnsNil(t *testing.T) {
	_, _, cancel, done := startGatewayUDP(t, gateway.UplinkFunc(func([]byte) error { return nil }))
	cancel()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("ServeUDP after cancel: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("ServeUDP did not return after context cancel")
	}
}

// faultyPacketConn returns a non-closure error from ReadFrom: the "NIC
// caught fire" path, distinct from a clean shutdown.
type faultyPacketConn struct {
	net.PacketConn
	err error
}

func (f *faultyPacketConn) ReadFrom([]byte) (int, net.Addr, error) {
	return 0, nil, f.err
}

func TestServeUDPSocketErrorSurfaces(t *testing.T) {
	inner, err := net.ListenPacket("udp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer inner.Close()
	bang := errors.New("input/output error")
	conn := &faultyPacketConn{PacketConn: inner, err: bang}
	gw := gateway.New(gateway.Config{ID: "gw"}, gateway.UplinkFunc(func([]byte) error { return nil }))

	got := ServeUDP(context.Background(), conn, gw.HandleFrame)
	if got == nil || !errors.Is(got, bang) {
		t.Fatalf("ServeUDP = %v, want wrapped %v", got, bang)
	}
}
