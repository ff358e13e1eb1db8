package daemon

import (
	"context"
	"net/http/httptest"
	"testing"
	"time"

	"centuryscale/internal/cloud"
	"centuryscale/internal/lpwan"
	"centuryscale/internal/resilience"
	"centuryscale/internal/telemetry"
)

// BenchmarkUplinkResilience measures the happy-path cost the resilience
// wrapper adds per send. "http/*" is the realistic comparison — a real
// HTTPUplink POSTing to a loopback endpoint, bare vs wrapped (budget:
// <5% overhead) — and "noop/*" isolates the wrapper's own bookkeeping
// with the network removed.
func BenchmarkUplinkResilience(b *testing.B) {
	id := lpwan.EUIFromUint64(0xB0B)
	key := telemetry.DeriveKey(master, id)
	cfg := resilience.Config{
		BackoffBase: time.Millisecond,
		BackoffMax:  100 * time.Millisecond,
		QueueDepth:  1024,
		Seed:        1,
	}

	newEndpoint := func(b *testing.B) *httptest.Server {
		b.Helper()
		srv := httptest.NewServer(cloud.NewServer(cloud.NewStore(cloud.StaticKeys(master)), time.Now()))
		b.Cleanup(srv.Close)
		return srv
	}
	// Distinct sequence numbers per iteration so the endpoint's replay
	// guard accepts every packet.
	payloads := func(b *testing.B) [][]byte {
		b.Helper()
		out := make([][]byte, b.N)
		for i := range out {
			wire, err := telemetry.Packet{Device: id, Seq: uint32(i + 1), Sensor: telemetry.SensorTemperature, Value: 1}.Seal(key)
			if err != nil {
				b.Fatal(err)
			}
			out[i] = wire
		}
		return out
	}

	b.Run("http/bare", func(b *testing.B) {
		u := &HTTPUplink{URL: newEndpoint(b).URL}
		ps := payloads(b)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := u.Send(ps[i]); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("http/resilient", func(b *testing.B) {
		up := resilience.NewUplink(&HTTPUplink{URL: newEndpoint(b).URL}, cfg)
		defer up.Close(context.Background())
		ps := payloads(b)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := up.Send(ps[i]); err != nil {
				b.Fatal(err)
			}
		}
		b.StopTimer()
		if st := up.Stats(); st.Buffered != 0 {
			b.Fatalf("happy path buffered: %+v", st)
		}
	})

	noop := resilience.SenderFunc(func([]byte) error { return nil })
	b.Run("noop/bare", func(b *testing.B) {
		p := []byte{1}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			_ = noop.Send(p)
		}
	})
	b.Run("noop/resilient", func(b *testing.B) {
		up := resilience.NewUplink(noop, cfg)
		defer up.Close(context.Background())
		p := []byte{1}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			_ = up.Send(p)
		}
	})
}
