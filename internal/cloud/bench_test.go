package cloud

import (
	"testing"
	"time"

	"centuryscale/internal/batch"
	"centuryscale/internal/lpwan"
	"centuryscale/internal/obs"
	"centuryscale/internal/telemetry"
	"centuryscale/internal/tsdb"
)

// benchWires pre-seals n monotone-seq packets for one device, so the
// measured loop is pure Ingest: parse + HMAC verify + replay check +
// store. Sealing happens outside the timer.
func benchWires(b *testing.B, n int) [][]byte {
	b.Helper()
	id := lpwan.EUIFromUint64(1)
	key := telemetry.DeriveKey(master, id)
	wires := make([][]byte, n)
	for i := range wires {
		w, err := telemetry.Packet{
			Device: id, Seq: uint32(i + 1), Sensor: telemetry.SensorStrain, Value: 1,
		}.Seal(key)
		if err != nil {
			b.Fatal(err)
		}
		wires[i] = w
	}
	return wires
}

func benchIngest(b *testing.B, instrument bool) {
	s := NewStore(StaticKeys(master))
	if instrument {
		s.RegisterMetrics(obs.NewRegistry(), nil)
	}
	wires := benchWires(b, b.N)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := s.Ingest(time.Duration(i)*time.Millisecond, wires[i]); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkIngestBare is the endpoint ingest path with no registry
// installed: the instrumentation hook costs one atomic pointer load.
func BenchmarkIngestBare(b *testing.B) { benchIngest(b, false) }

// BenchmarkIngestInstrumented is the same path after RegisterMetrics:
// disposition counters plus the latency histogram's two clock readings.
// The delta against BenchmarkIngestBare is the number the 5% overhead
// budget is judged against.
func BenchmarkIngestInstrumented(b *testing.B) { benchIngest(b, true) }

// benchDurableStore opens a store on a real WAL with SyncAlways, the
// durability level the batched-vs-bare comparison is judged at: every
// ack costs at least one fsync, so the only way to go faster is to
// amortize the fsync over more packets.
func benchDurableStore(b *testing.B) *Store {
	b.Helper()
	db, err := tsdb.Open(tsdb.Options{Dir: b.TempDir(), Shards: 4, Sync: tsdb.SyncAlways})
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { db.Close() })
	return NewStoreWithDB(StaticKeys(master), db)
}

// BenchmarkIngestBareSyncAlways is the durable baseline: one packet per
// request, one fsync per ack. Packets/sec here is the denominator of
// the >=10x batching claim.
func BenchmarkIngestBareSyncAlways(b *testing.B) {
	s := benchDurableStore(b)
	wires := benchWires(b, b.N)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := s.Ingest(time.Duration(i)*time.Millisecond, wires[i]); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N), "ns/packet")
}

// benchPacketsPerFrame sizes the batched benchmark's frames. 256 is a
// realistic gateway flush (a quarter of batch.DefaultMaxPackets) and
// already puts the fsync under 0.5% of per-packet cost.
const benchPacketsPerFrame = 256

// BenchmarkIngestBatched drives whole frames through IngestBatch at the
// same SyncAlways durability: one group fsync per frame, N packets per
// ack. Compare ns/packet against BenchmarkIngestBareSyncAlways — the
// ratio is the batching win. allocs/op divided by benchPacketsPerFrame
// must stay <= 2 (the pooled-decode budget).
func BenchmarkIngestBatched(b *testing.B) {
	s := benchDurableStore(b)
	wires := benchWires(b, b.N*benchPacketsPerFrame)
	frames := make([][]byte, b.N)
	for i := range frames {
		f, err := batch.AppendFrame(nil, wires[i*benchPacketsPerFrame:(i+1)*benchPacketsPerFrame]...)
		if err != nil {
			b.Fatal(err)
		}
		frames[i] = f
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := s.IngestBatch(time.Duration(i)*time.Millisecond, frames[i])
		if err != nil {
			b.Fatal(err)
		}
		if res.Accepted != benchPacketsPerFrame {
			b.Fatalf("frame %d: accepted %d of %d", i, res.Accepted, benchPacketsPerFrame)
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(int64(b.N)*benchPacketsPerFrame), "ns/packet")
}
