package cloud

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"hash/crc32"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"testing"
	"time"

	"centuryscale/internal/lpwan"
	"centuryscale/internal/rollup"
	"centuryscale/internal/telemetry"
)

// The three parsers that read persisted bytes at boot — the sealed-segment
// decoder, the manifest loader and the JSON snapshot reader — each get
// the same three demands: no panic on any input, no allocation beyond a
// stated bound however large the numbers in the input claim to be, and
// no partial install: a load that fails leaves the store exactly as it
// was.

// allocated runs fn and returns the bytes it allocated.
func allocated(fn func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	fn()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

func fuzzBuckets(n int) []rollup.Bucket {
	bs := make([]rollup.Bucket, n)
	for i := range bs {
		start := time.Duration(i) * time.Hour
		bs[i] = rollup.Bucket{Start: start, Count: 3, Sum: 7.5, Min: 1, Max: 4, First: start + time.Minute, Last: start + 50*time.Minute, MaxGap: 30 * time.Minute, MaxSeq: uint32(3 * (i + 1))}
	}
	return bs
}

// resealed returns a copy of data with the CRC of every frame whose
// length field keeps it inside data recomputed, so that a mutation of a
// frame's payload reaches the bucket decoders instead of stopping at the
// checksum. The checksum's own refusal is TestDamagedSegmentRefusesBoot's.
func resealed(data []byte) []byte {
	out := append([]byte(nil), data...)
	for off := 0; off+8 <= len(out); {
		end := off + 8 + int(binary.BigEndian.Uint32(out[off:]))
		if end > len(out) {
			break
		}
		binary.BigEndian.PutUint32(out[off+4:], crc32.Checksum(out[off+8:end], castagnoli))
		off = end
	}
	return out
}

// FuzzSegmentDecode: whatever decodeSealed accepts, in either encoding,
// re-encodes to exactly the bytes it came from (both encodings are
// canonical; fixed frames are re-encoded by appendFixedFrame, the
// test-local copy of the encoder builds before manifest version 4 used),
// every frame it hands on is within bounds, and decoding allocates one
// frame's worth of scratch (under 256 KiB) whatever the length fields
// say. Every in-bounds frame is resealed first (resealed).
func FuzzSegmentDecode(f *testing.F) {
	dev := lpwan.EUIFromUint64(0xCAFE)
	ones := make([]rollup.Bucket, 4) // one reading each: the single form
	for i := range ones {
		start, v := time.Duration(i)*time.Hour, float32(i)/3
		at := start + time.Duration(i)*time.Second
		ones[i] = rollup.Bucket{Start: start, Count: 1, Sum: float64(v), Min: v, Max: v, First: at, Last: at, MaxSeq: uint32(i + 1)}
	}
	single := mustCompact(f, nil, dev, tierHourly, ones)
	full := mustCompact(f, nil, dev, tierHourly, fuzzBuckets(3))
	fixed := appendFixedFrame(nil, dev, tierDailyFixed, fuzzBuckets(1))
	f.Add(single)
	f.Add(full)
	f.Add(fixed)
	days := fuzzBuckets(2)
	for i := range days {
		days[i].Start *= 24
		days[i].First, days[i].Last = days[i].Start+time.Hour, days[i].Start+20*time.Hour
	}
	f.Add(mustCompact(f, append([]byte(nil), fixed...), dev, tierDaily, days))
	f.Add(mustCompact(f, nil, lpwan.EUIFromUint64(1), tierHourly, fuzzBuckets(maxFrameBuckets)))
	for _, tc := range compactRefusals {
		f.Add(reframe(dev, tierHourly, tc.count, tc.body))
	}
	f.Add(full[:len(full)-9])             // torn last frame
	f.Add(bytes.Repeat([]byte{0xFF}, 64)) // length and count far out of bounds
	f.Add(bytes.Repeat([]byte{0x00}, 64)) // zero count
	flipped := append([]byte(nil), full...)
	flipped[segFrameHeader+17] ^= 0x20
	f.Add(flipped)
	badTier := append([]byte(nil), full...)
	badTier[16] = 9
	f.Add(badTier)

	f.Fuzz(func(t *testing.T, data []byte) {
		data = resealed(data)
		var re []byte
		var err error
		spent := allocated(func() {
			err = decodeSealed(bytes.NewReader(data), fuzzGeometry, func(lpwan.EUI64, byte, []rollup.Bucket) {})
		})
		if spent > 256<<10 {
			t.Fatalf("decoding %d bytes allocated %d", len(data), spent)
		}
		err2 := decodeSealed(bytes.NewReader(data), fuzzGeometry, func(dev lpwan.EUI64, tier byte, bs []rollup.Bucket) {
			if len(bs) == 0 || len(bs) > maxFrameBuckets {
				t.Fatalf("frame out of bounds: tier %d, %d buckets", tier, len(bs))
			}
			switch tier {
			case tierHourlyFixed, tierDailyFixed:
				re = appendFixedFrame(re, dev, tier, bs)
			case tierHourly, tierDaily:
				re = mustCompact(t, re, dev, tier, bs)
			default:
				t.Fatalf("frame of unknown tier %d", tier)
			}
		})
		if (err == nil) != (err2 == nil) {
			t.Fatalf("two decodes of the same bytes disagree: %v vs %v", err, err2)
		}
		if !bytes.HasPrefix(data, re) {
			t.Fatal("decoded frames do not re-encode to the bytes they came from")
		}
		if err == nil && len(re) != len(data) {
			t.Fatalf("clean decode consumed %d of %d bytes", len(re), len(data))
		}
	})
}

// fuzzStore is a small rollup store with state of its own, so that a load
// which wrongly half-installs something shows up as a changed export.
func fuzzStore(t testing.TB) (*Store, []byte) {
	s := NewStore(StaticKeys(master))
	if err := s.EnableRollups(rollup.Config{}, 36*time.Hour); err != nil {
		t.Fatal(err)
	}
	s.install(snapshotFile{Stats: IngestStats{Accepted: 5, Stale: 1}, Weeks: []int64{0, 3}, Lapses: [][2]int64{{int64(time.Hour), int64(2 * time.Hour)}}}, nil, s.Rollups())
	var buf bytes.Buffer
	if err := s.WriteSnapshot(&buf); err != nil {
		t.Fatal(err)
	}
	return s, buf.Bytes()
}

// wideStore is a store folded at 2 h / 48 h, not the default widths: the
// readers' seed for an archive read at the geometry it records. Forty
// readings 150 minutes apart, twelve hours of them kept raw, fill both
// tiers.
func wideStore(tb testing.TB) *Store {
	s := NewStore(StaticKeys(master))
	if err := s.EnableRollups(rollup.Config{Hourly: 2 * time.Hour, Daily: 48 * time.Hour}, 12*time.Hour); err != nil {
		tb.Fatal(err)
	}
	for seq := uint32(1); seq <= 40; seq++ {
		if err := s.Ingest(time.Duration(seq)*150*time.Minute, sealed(tb, 0xC1, seq, float32(seq%5))); err != nil {
			tb.Fatal(err)
		}
	}
	if s.FoldRollups(s.HighWater()) == 0 || s.Rollups().DailyFoldedBefore() == 0 {
		tb.Fatal("the wide store folded no daily bucket")
	}
	return s
}

// FuzzManifestLoad feeds arbitrary bytes to LoadFile as the file at the
// -snapshot path, beside a real archive's segments: a manifest may claim
// any name, length or CRC. Loading must not read outside <path>.d, must
// not allocate by the lengths it is told (bound: 8 MiB over a 40 KiB
// archive), and must either restore a consistent store or change nothing.
func FuzzManifestLoad(f *testing.F) {
	dir := f.TempDir()
	snap := filepath.Join(dir, "snapshot.json")
	// The wide archive's manifest is a seed; its files are put back
	// beside the main archive's once that one's checkpoint has swept them.
	if err := wideStore(f).Checkpoint(snap); err != nil {
		f.Fatal(err)
	}
	wide, err := os.ReadFile(snap)
	if err != nil {
		f.Fatal(err)
	}
	wideFiles := map[string][]byte{}
	entries, err := os.ReadDir(snap + ".d")
	if err != nil {
		f.Fatal(err)
	}
	for _, e := range entries {
		if wideFiles[e.Name()], err = os.ReadFile(filepath.Join(snap+".d", e.Name())); err != nil {
			f.Fatal(err)
		}
	}
	src := NewStore(StaticKeys(master))
	if err := src.EnableRollups(rollup.Config{}, 36*time.Hour); err != nil {
		f.Fatal(err)
	}
	fixture, err := os.ReadFile(filepath.Join("testdata", "snapshot-v2.json"))
	if err != nil {
		f.Fatal(err)
	}
	if err := src.ReadSnapshot(bytes.NewReader(fixture)); err != nil {
		f.Fatal(err)
	}
	if err := src.Checkpoint(snap); err != nil {
		f.Fatal(err)
	}
	valid, err := os.ReadFile(snap)
	if err != nil {
		f.Fatal(err)
	}
	// The archive's tail is device runs (0x03), so every seed built on
	// valid names one for the fuzzer to pair with mutated lengths and CRCs.
	if tail, err := os.ReadFile(filepath.Join(snap+".d", src.arch.tail.Name)); err != nil || len(tail) < 9 || tail[8] != 0x03 {
		f.Fatalf("the seed archive's tail is not device runs: %v", err)
	}
	for name, data := range wideFiles {
		if err := os.WriteFile(filepath.Join(snap+".d", name), data, 0o644); err != nil {
			f.Fatal(err)
		}
	}
	f.Add(valid)
	f.Add(wide)
	f.Add(bytes.Replace(valid, []byte(`"bytes":`), []byte(`"bytes":9`), 1))                // a length past the file
	f.Add(bytes.Replace(valid, []byte(`"bytes":`), []byte(`"bytes":-`), 1))                // negative
	f.Add(bytes.Replace(valid, []byte(`"name":"tail-`), []byte(`"name":"../../tail-`), 1)) // outside the directory
	f.Add(bytes.Replace(valid, []byte(`"crc32c":`), []byte(`"crc32c":1`), 1))
	f.Add(bytes.Replace(valid, []byte(`"folded_before":`), []byte(`"folded_before":-`), 1))
	f.Add(bytes.Replace(valid, []byte(`"hourly":`), []byte(`"hourly":7`), 1)) // geometry
	f.Add(bytes.Replace(valid, []byte(`"sealed":[`), []byte(`"sealed":[{"name":"sealed-00000001.seg","bytes":60,"crc32c":0},`), 1))
	f.Add([]byte(`{"version":3}`))
	f.Add([]byte(`{"version":3,"sealed":[{"name":"sealed-00000001.seg"}]}`))
	f.Add(fixture) // a JSON snapshot at the path takes the other reader
	f.Add([]byte(`{"version":99}`))
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
		if err := os.WriteFile(snap, data, 0o644); err != nil {
			t.Fatal(err)
		}
		s, before := fuzzStore(t)
		var err error
		if spent := allocated(func() { err = s.LoadFile(snap) }); spent > 8<<20+64*uint64(len(data)) {
			t.Fatalf("loading a %d-byte manifest allocated %d", len(data), spent)
		}
		after := exportOf(t, s)
		if err != nil {
			if !bytes.Equal(after, before) {
				t.Fatalf("failed load (%v) changed the store", err)
			}
			return
		}
		// Loaded: what came in must be a fixed point of export and import.
		again, _ := fuzzStore(t)
		if err := again.ReadSnapshot(bytes.NewReader(after)); err != nil {
			t.Fatalf("export of a loaded store does not load: %v", err)
		}
		if !bytes.Equal(exportOf(t, again), after) {
			t.Fatal("export of a loaded store is not a fixed point")
		}
	})
}

// FuzzReadSnapshot is the version-1/2 JSON reader's fuzzer: geometry
// guards, huge counts, device strings, buckets out of order. JSON has no
// length prefixes, so the allocation bound is a multiple of the input
// (256 bytes per input byte, plus 1 MiB of fixed cost).
func FuzzReadSnapshot(f *testing.F) {
	for _, name := range []string{"snapshot-v1.json", "snapshot-v2.json"} {
		b, err := os.ReadFile(filepath.Join("testdata", name))
		if err != nil {
			f.Fatal(err)
		}
		f.Add(b)
	}
	var wide bytes.Buffer
	if err := wideStore(f).WriteSnapshot(&wide); err != nil {
		f.Fatal(err)
	}
	f.Add(wide.Bytes())
	f.Add([]byte(`{"version":2,"readings":{"00:00:00:00:00:00:00:01":[{"at":5,"seq":4294967295,"sensor":255,"value":1e38,"uptime":4294967295}]},"weeks":[9223372036854775807]}`))
	f.Add([]byte(`{"version":2,"readings":{"not-a-device":[]}}`))
	f.Add([]byte(`{"version":2,"rollups":{"hourly":3600000000000,"daily":86400000000000,"folded_before":7200000000000,"daily_folded_before":0,"hourly_buckets":{"00:00:00:00:00:00:00:01":[{"start":3600000000000,"count":18446744073709551615,"sum_bits":9218868437227405312,"min_bits":0,"max_bits":0,"first":0,"last":0,"max_gap":0,"max_seq":0},{"start":0,"count":1}]},"daily_buckets":{}}}`))
	f.Add([]byte(`{"version":2,"rollups":{"hourly":1,"daily":3,"folded_before":0,"daily_folded_before":0,"hourly_buckets":{},"daily_buckets":{"bogus":[]}}}`))
	f.Add([]byte(`{"version":2,"rollups":{"hourly":-5,"daily":0}}`))
	f.Add([]byte(`{"version":0}`))
	f.Add([]byte(`{"version":2,"stats":{"Accepted":18446744073709551615},"lapses":[[5,1]]}`))

	f.Fuzz(func(t *testing.T, data []byte) {
		s, before := fuzzStore(t)
		var err error
		if spent := allocated(func() { err = s.ReadSnapshot(bytes.NewReader(data)) }); spent > 1<<20+256*uint64(len(data)) {
			t.Fatalf("reading a %d-byte snapshot allocated %d", len(data), spent)
		}
		after := exportOf(t, s)
		if err != nil {
			if !bytes.Equal(after, before) {
				t.Fatalf("failed read (%v) changed the store", err)
			}
			return
		}
		again, _ := fuzzStore(t)
		if err := again.ReadSnapshot(bytes.NewReader(after)); err != nil {
			t.Fatalf("export of a read snapshot does not load: %v", err)
		}
		if !bytes.Equal(exportOf(t, again), after) {
			t.Fatal("export of a read snapshot is not a fixed point")
		}
	})
}

// FuzzClusterReplicate drives POST /cluster/replicate, the one parser of
// bytes a peer sends that writes device records (Store.Repair), with
// arbitrary bodies against a store holding two readings. It must never
// panic. An answer other than 2xx leaves Stats and every device's
// History as they were. After a 2xx, every stored (device, seq) is a
// replay to admission: the repair advanced the windows it wrote.
func FuzzClusterReplicate(f *testing.F) {
	dev := lpwan.EUIFromUint64(11)
	valid, err := json.Marshal(ReplicatePayload{Device: dev.String(), Records: []ClusterRecord{
		{AtNanos: int64(time.Minute), Seq: 1, ValueBits: 0x3f800000},
		{AtNanos: int64(3 * time.Minute), Seq: 3, Sensor: 2, ValueBits: 0x40400000, Uptime: 9},
		{AtNanos: int64(time.Hour), Seq: 90},
	}})
	if err != nil {
		f.Fatal(err)
	}
	f.Add(valid)
	f.Add([]byte(`{"device":"` + lpwan.EUIFromUint64(12).String() + `","records":[{"at_nanos":-1,"seq":4294967295},{"seq":0}]}`))
	f.Add([]byte(`{"device":"not-a-device","records":[]}`))
	f.Add([]byte(`{"device":"` + dev.String() + `","records":[{"seq":"x"}]}`))
	f.Add([]byte(`{"device":`))
	f.Add([]byte(`[]`))

	f.Fuzz(func(t *testing.T, body []byte) {
		store := NewStore(StaticKeys(master))
		for seq := uint32(1); seq <= 2; seq++ {
			if err := store.Ingest(time.Duration(seq)*time.Minute, sealed(t, 11, seq, float32(seq))); err != nil {
				t.Fatal(err)
			}
		}
		histories := func() map[lpwan.EUI64][]Reading {
			h := make(map[lpwan.EUI64][]Reading)
			for _, d := range store.Devices() {
				h[d] = store.History(d)
			}
			return h
		}
		stats, hist := store.Stats(), histories()

		server := NewServer(store, time.Unix(0, 0))
		server.SetClusterSecret("s3cret")
		req := httptest.NewRequest("POST", "/cluster/replicate", bytes.NewReader(body))
		req.Header.Set(ClusterSecretHeader, "s3cret")
		rec := httptest.NewRecorder()
		server.ServeHTTP(rec, req)

		if rec.Code/100 != 2 {
			if got := store.Stats(); got != stats {
				t.Fatalf("answer %d changed Stats:\n before %+v\n after  %+v", rec.Code, stats, got)
			}
			if got := histories(); !reflect.DeepEqual(got, hist) {
				t.Fatalf("answer %d changed a History", rec.Code)
			}
			return
		}
		for d, rs := range histories() {
			key := telemetry.DeriveKey(master, d)
			for _, r := range rs {
				wire, err := telemetry.Packet{Device: d, Seq: r.Packet.Seq}.Seal(key)
				if err != nil {
					t.Fatal(err)
				}
				if err := store.Ingest(time.Hour, wire); !errors.Is(err, telemetry.ErrReplay) {
					t.Fatalf("stored seq %d of %v offered again after a repair: %v, want ErrReplay", r.Packet.Seq, d, err)
				}
			}
		}
	})
}
