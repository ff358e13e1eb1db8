package tsdb

import (
	"slices"
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

// frameOf returns a frame of n points from devices 1..n sharing the
// arrival at, bucketed by shard as admission hands a frame to
// AppendDeferred.
func frameOf(n int, at time.Duration, seq uint32) []Point {
	frame := make([]Point, n)
	for j := range frame {
		frame[j] = Point{Device: lpwan.EUIFromUint64(uint64(j + 1)), At: at, Seq: seq, Sensor: 1, Value: float32(j), Uptime: seq}
	}
	slices.SortStableFunc(frame, func(a, b Point) int {
		return ShardIndex(a.Device, DefaultShards) - ShardIndex(b.Device, DefaultShards)
	})
	return frame
}

// BenchmarkTSDBRecovery measures boot replay per point for each WAL
// record type: 51,200 points logged as point records (every arrival
// distinct, 64 devices) or as arrival runs (200 frames of 256 packets,
// one run per shard a frame touches). ns/point compares the two decoders;
// SetBytes reports replay bandwidth in WAL bytes/sec — the number that
// decides how long the endpoint is dark after a crash.
func BenchmarkTSDBRecovery(b *testing.B) {
	const points = 51_200
	for _, tc := range []struct {
		name  string
		frame int // points per arrival
	}{{"record=point", 1}, {"record=run", 256}} {
		b.Run(tc.name, func(b *testing.B) {
			dir := b.TempDir()
			db, err := Open(Options{Dir: dir, Sync: SyncNever})
			if err != nil {
				b.Fatal(err)
			}
			for i := 0; i < points; i += tc.frame {
				frame := []Point{{Device: lpwan.EUIFromUint64(uint64(i%64 + 1)), At: time.Duration(i) * time.Second, Seq: uint32(i/64 + 1), Value: float32(i)}}
				if tc.frame > 1 {
					frame = frameOf(tc.frame, time.Duration(i)*time.Second, uint32(i/tc.frame+1))
				}
				if err := db.AppendBatch(frame); err != nil {
					b.Fatal(err)
				}
			}
			walBytes := db.wal.appended.Load()
			if err := db.Close(); err != nil {
				b.Fatal(err)
			}

			b.SetBytes(int64(walBytes))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				re, err := Open(Options{Dir: dir, Sync: SyncNever})
				if err != nil {
					b.Fatal(err)
				}
				st, err := re.Replay(nil)
				if err != nil {
					b.Fatal(err)
				}
				if st.Records != points || st.Corruptions != 0 {
					b.Fatalf("replay stats %+v", st)
				}
				if err := re.Close(); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/points, "ns/point")
			b.ReportMetric(float64(walBytes)/points, "walB/point")
		})
	}
}

// BenchmarkTSDBAppendFrame appends 256-packet frames as admission does —
// one AppendDeferred of the frame bucketed by shard, then its Flush — and
// reports the log's bytes per point (walB/point: 17 + 21k bytes per run of
// k points, about 21.5 at this frame size). The memtable and the log are
// emptied every 512 frames, off the clock, so memory and disk stay small.
func BenchmarkTSDBAppendFrame(b *testing.B) {
	db, err := Open(Options{Dir: b.TempDir(), Sync: SyncNever})
	if err != nil {
		b.Fatal(err)
	}
	defer db.Close()
	frame := frameOf(256, 0, 0)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j := range frame {
			frame[j].At, frame[j].Seq = time.Duration(i)*time.Second, uint32(i+1)
		}
		if err := db.Flush(db.AppendDeferred(frame)); err != nil {
			b.Fatal(err)
		}
		if i%512 == 511 {
			b.StopTimer()
			if err := db.Checkpoint(func() error { return nil }); err != nil {
				b.Fatal(err)
			}
			db.Reset()
			b.StartTimer()
		}
	}
	b.ReportMetric(float64(db.wal.appended.Load())/float64(b.N*len(frame)), "walB/point") // the LSN counts every byte since Open
}

// BenchmarkTSDBRangeSlice measures the read path /history, /export and
// the query engine share: a range query over the middle third of a
// 10k-point device history, its buffer returned to the range pool.
func BenchmarkTSDBRangeSlice(b *testing.B) {
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
		pts, release := db.RangeSlice(dev, from, to)
		if len(pts) != points/3 {
			b.Fatalf("range returned %d points", len(pts))
		}
		release()
	}
}
