package tsdb

import (
	"sync/atomic"
	"testing"
	"time"

	"centuryscale/internal/lpwan"
)

// benchAppend drives concurrent appends into a WAL-backed engine with
// the given shard count. SyncNever keeps fsync out of the measurement:
// the benchmark isolates the engine's own locking, so the shards=1 vs
// shards=16 comparison shows the serialisation a single shard imposes
// on a multi-core ingest path. Each goroutine writes its own device, as
// a real fleet does, so the sharding hash spreads the contention.
func benchAppend(b *testing.B, shards int) {
	db, err := Open(Options{Dir: b.TempDir(), Shards: shards, Sync: SyncNever})
	if err != nil {
		b.Fatal(err)
	}
	defer db.Close()

	var nextDev atomic.Uint64
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		dev := lpwan.EUIFromUint64(nextDev.Add(1))
		var seq uint32
		for pb.Next() {
			seq++
			if err := db.Append(Point{
				Device: dev,
				At:     time.Duration(seq) * time.Second,
				Seq:    seq,
				Sensor: 1,
				Value:  float32(seq),
				Uptime: seq,
			}); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkTSDBIngestParallel is the scaling acceptance benchmark: on a
// multi-core host, 16 shards must sustain at least twice the append
// throughput of 1 shard (on a single-core container the curve is flat —
// there is no parallelism for sharding to unlock).
func BenchmarkTSDBIngestParallel(b *testing.B) {
	b.Run("shards=1", func(b *testing.B) { benchAppend(b, 1) })
	b.Run("shards=4", func(b *testing.B) { benchAppend(b, 4) })
	b.Run("shards=16", func(b *testing.B) { benchAppend(b, 16) })
}

// BenchmarkTSDBAppendSerial is the single-writer floor: one goroutine,
// one device, no contention — the per-append cost of framing + CRC +
// the buffered segment write.
func BenchmarkTSDBAppendSerial(b *testing.B) {
	db, err := Open(Options{Dir: b.TempDir(), Shards: 1, Sync: SyncNever})
	if err != nil {
		b.Fatal(err)
	}
	defer db.Close()
	dev := lpwan.EUIFromUint64(1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		seq := uint32(i + 1)
		if err := db.Append(Point{Device: dev, At: time.Duration(i), Seq: seq, Value: 1}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTSDBRecovery measures boot replay: open an engine over a WAL
// holding 50k records and stream them all back. SetBytes reports replay
// bandwidth in WAL bytes/sec — the number that decides how long the
// endpoint is dark after a crash.
func BenchmarkTSDBRecovery(b *testing.B) {
	const records = 50_000
	const devices = 64
	dir := b.TempDir()
	db, err := Open(Options{Dir: dir, Shards: 4, Sync: SyncNever})
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < records; i++ {
		if err := db.Append(Point{
			Device: lpwan.EUIFromUint64(uint64(i%devices + 1)),
			At:     time.Duration(i) * time.Second,
			Seq:    uint32(i/devices + 1),
			Value:  float32(i),
		}); err != nil {
			b.Fatal(err)
		}
	}
	if err := db.Close(); err != nil {
		b.Fatal(err)
	}

	b.SetBytes(int64(records) * (frameHeader + pointPayload))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		re, err := Open(Options{Dir: dir, Shards: 4, Sync: SyncNever})
		if err != nil {
			b.Fatal(err)
		}
		st, err := re.Replay(nil)
		if err != nil {
			b.Fatal(err)
		}
		if st.Records != records || st.Corruptions != 0 {
			b.Fatalf("replay stats %+v", st)
		}
		if err := re.Close(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTSDBRangeQuery measures the status page's read path: a range
// query over the middle third of a 10k-point device history.
func BenchmarkTSDBRangeQuery(b *testing.B) {
	db, err := Open(Options{Shards: 4}) // memory-only: reads never touch the WAL
	if err != nil {
		b.Fatal(err)
	}
	defer db.Close()
	dev := lpwan.EUIFromUint64(7)
	const points = 10_000
	for i := 0; i < points; i++ {
		db.Load(Point{Device: dev, At: time.Duration(i) * time.Minute, Seq: uint32(i + 1), Value: float32(i)})
	}
	from := time.Duration(points/3) * time.Minute
	to := time.Duration(2*points/3) * time.Minute
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		it := db.Range(dev, from, to)
		n := 0
		for it.Next() {
			n++
		}
		it.Close() // returns the backing buffer to the range pool
		if n != points/3 {
			b.Fatalf("range returned %d points", n)
		}
	}
}

// BenchmarkTSDBRangeSlice is the same query through the pooled-slice
// fast path the query engine uses — no Iterator wrapper at all.
func BenchmarkTSDBRangeSlice(b *testing.B) {
	db, err := Open(Options{Shards: 4})
	if err != nil {
		b.Fatal(err)
	}
	defer db.Close()
	dev := lpwan.EUIFromUint64(7)
	const points = 10_000
	for i := 0; i < points; i++ {
		db.Load(Point{Device: dev, At: time.Duration(i) * time.Minute, Seq: uint32(i + 1), Value: float32(i)})
	}
	from := time.Duration(points/3) * time.Minute
	to := time.Duration(2*points/3) * time.Minute
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pts, release := db.RangeSlice(dev, from, to)
		if len(pts) != points/3 {
			b.Fatalf("range returned %d points", len(pts))
		}
		release()
	}
}
