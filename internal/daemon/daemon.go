// Package daemon contains the networked runtime shared by the real
// executables in cmd/: the UDP listener that turns a Linux box into an
// open gateway, the HTTP uplink that forwards device payloads to the
// public endpoint, and an emulated transmit-only sensor node.
//
// This is the deployable half of the reproduction: the simulator answers
// "what happens over 50 years", while these pieces are the actual
// sensornode -> gatewayd -> endpointd datapath, speaking the same lpwan
// frames and 24-byte telemetry packets over real sockets. The gateway is
// exactly what §3.2 asks for — a router that forwards any structurally
// valid device frame upstream and defers all decisions to the endpoint.
package daemon

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"sync"
	"time"

	"centuryscale/internal/batch"
	"centuryscale/internal/gateway"
	"centuryscale/internal/httpapi"
	"centuryscale/internal/lorawan"
	"centuryscale/internal/lpwan"
	"centuryscale/internal/telemetry"
)

// HTTPUplink forwards gateway payloads to the endpoint's /ingest route.
// Errors are classified for retry loops: network failures and 5xx are
// transient (503/429 carry the endpoint's Retry-After hint), other 4xx
// are resilience.Permanent — the endpoint understood and refused, so
// retrying or buffering cannot help.
type HTTPUplink struct {
	// URL is the endpoint base, e.g. "http://127.0.0.1:8080".
	URL string
	// Client defaults to a shared 10-second-timeout client. Set it
	// before the first Send or not at all.
	Client *http.Client

	fallbackOnce sync.Once
	fallback     *http.Client
}

func (u *HTTPUplink) client() *http.Client {
	if u.Client != nil {
		return u.Client
	}
	// Construct the fallback exactly once so its transport's connection
	// pool is reused across sends instead of leaking one pool per call.
	u.fallbackOnce.Do(func() {
		u.fallback = &http.Client{Timeout: 10 * time.Second}
	})
	return u.fallback
}

// Send implements gateway.Uplink (and resilience.Sender). Bare packets
// post to /ingest; batch frames (built by a resilience.Uplink running
// with -batch) post to /ingest/batch — the shapes are structurally
// disjoint, so one sender serves both without configuration.
func (u *HTTPUplink) Send(payload []byte) error {
	route := "/ingest"
	if batch.IsFrame(payload) {
		route = "/ingest/batch"
	}
	resp, err := u.client().Post(u.URL+route, "application/octet-stream", bytes.NewReader(payload))
	if err != nil {
		return fmt.Errorf("daemon: uplink post: %w", err)
	}
	defer resp.Body.Close()
	_, _ = io.Copy(io.Discard, io.LimitReader(resp.Body, 1024))
	// 422 means the endpoint saw the packet but rejected it (duplicate
	// via another gateway, bad signature): the gateway's job is done.
	if resp.StatusCode == http.StatusAccepted || resp.StatusCode == http.StatusUnprocessableEntity {
		return nil
	}
	return httpapi.ClassifyStatus("daemon: uplink", resp)
}

// ServeUDP reads link-layer frames from the socket and hands them to the
// gateway until the context is cancelled. Malformed datagrams are counted
// by the gateway and dropped; socket errors other than closure are
// returned.
func ServeUDP(ctx context.Context, conn net.PacketConn, gw *gateway.Gateway) error {
	done := make(chan struct{})
	watcherDone := make(chan struct{})
	defer func() {
		// Join the watcher: without this it could still be inside
		// conn.Close when we return and the caller reuses the socket.
		close(done)
		<-watcherDone
	}()
	go func() {
		defer close(watcherDone)
		select {
		case <-ctx.Done():
			conn.Close()
		case <-done:
		}
	}()
	buf := make([]byte, 2048)
	for {
		n, _, err := conn.ReadFrom(buf)
		if err != nil {
			if ctx.Err() != nil || errors.Is(err, net.ErrClosed) {
				return nil
			}
			return fmt.Errorf("daemon: udp read: %w", err)
		}
		frame := make([]byte, n)
		copy(frame, buf[:n])
		// Forwarding errors (blocklist, uplink down) are the gateway's
		// statistics, not the listener's problem.
		_ = gw.HandleFrame(frame)
	}
}

// SensorNode emulates the paper's transmit-only device on a real network:
// it sends one signed 24-byte reading per interval over UDP and never
// listens for anything. By default readings ride the lpwan link frame
// (the owned-gateway path); with LoRaWAN enabled they ride a genuine
// LoRaWAN uplink instead (the third-party hotspot path).
type SensorNode struct {
	ID       lpwan.EUI64
	Key      telemetry.Key
	Sensor   telemetry.SensorType
	Interval time.Duration
	// Read produces the sensor value; nil sends a constant 1.
	Read func() float32

	// LoRaWAN, when non-nil, wraps readings in LoRaWAN uplinks.
	LoRaWAN *LoRaWANSession

	seq     uint32
	started time.Time
}

// LoRaWANSession is the ABP personalisation burned into a third-party-
// path device.
type LoRaWANSession struct {
	DevAddr          uint32
	NwkSKey, AppSKey []byte
}

// NewLoRaWANSession derives the session from an ABP master secret.
func NewLoRaWANSession(master []byte, devAddr uint32) (*LoRaWANSession, error) {
	nwk, app, err := lorawan.SessionKeys(master, devAddr)
	if err != nil {
		return nil, err
	}
	return &LoRaWANSession{DevAddr: devAddr, NwkSKey: nwk, AppSKey: app}, nil
}

// BuildFrame produces the next reading as an on-the-wire frame.
func (n *SensorNode) BuildFrame(now time.Time) ([]byte, error) {
	if n.started.IsZero() {
		n.started = now
	}
	value := float32(1)
	if n.Read != nil {
		value = n.Read()
	}
	n.seq++
	p := telemetry.Packet{
		Device:        n.ID,
		Seq:           n.seq,
		Sensor:        n.Sensor,
		Value:         value,
		UptimeSeconds: uint32(now.Sub(n.started) / time.Second),
	}
	payload, err := p.Seal(n.Key)
	if err != nil {
		return nil, err
	}
	if n.LoRaWAN != nil {
		u := lorawan.Uplink{
			DevAddr: n.LoRaWAN.DevAddr,
			FCnt:    uint16(n.seq),
			FPort:   1,
			Payload: payload,
		}
		return u.Encode(n.LoRaWAN.NwkSKey, n.LoRaWAN.AppSKey)
	}
	f := lpwan.Frame{
		Type:    lpwan.FrameData,
		Source:  n.ID,
		Seq:     uint16(n.seq),
		Payload: payload,
	}
	return f.Encode()
}

// SendOnce transmits a single reading to the gateway address.
func (n *SensorNode) SendOnce(conn net.PacketConn, to net.Addr, now time.Time) error {
	wire, err := n.BuildFrame(now)
	if err != nil {
		return err
	}
	if _, err := conn.WriteTo(wire, to); err != nil {
		return fmt.Errorf("daemon: sensor send: %w", err)
	}
	return nil
}

// Run transmits on the node's interval until the context is cancelled.
func (n *SensorNode) Run(ctx context.Context, conn net.PacketConn, to net.Addr) error {
	if n.Interval <= 0 {
		return fmt.Errorf("daemon: sensor interval must be positive")
	}
	tick := time.NewTicker(n.Interval)
	defer tick.Stop()
	for {
		select {
		case <-ctx.Done():
			return nil
		case now := <-tick.C:
			if err := n.SendOnce(conn, to, now); err != nil {
				return err
			}
		}
	}
}
