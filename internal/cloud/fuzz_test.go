package cloud

import (
	"bytes"
	"os"
	"path/filepath"
	"runtime"
	"testing"
	"time"

	"centuryscale/internal/lpwan"
	"centuryscale/internal/rollup"
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

// FuzzSegmentDecode: whatever decodeSealed accepts re-encodes to exactly
// the bytes it came from (the framing is canonical), every frame it hands
// on is within bounds, and decoding allocates one frame's worth of
// scratch (under 256 KiB) whatever the length fields say.
func FuzzSegmentDecode(f *testing.F) {
	one := appendBucketFrame(nil, lpwan.EUIFromUint64(0xCAFE), tierHourly, fuzzBuckets(3))
	two := appendBucketFrame(append([]byte(nil), one...), lpwan.EUIFromUint64(0xCAFE), tierDaily, fuzzBuckets(1))
	f.Add(one)
	f.Add(two)
	f.Add(appendBucketFrame(nil, lpwan.EUIFromUint64(1), tierHourly, fuzzBuckets(maxFrameBuckets)))
	f.Add(two[:len(two)-9])               // torn last frame
	f.Add(bytes.Repeat([]byte{0xFF}, 64)) // length and count far out of bounds
	f.Add(bytes.Repeat([]byte{0x00}, 64)) // zero count
	flipped := append([]byte(nil), one...)
	flipped[segFrameHeader+17] ^= 0x20
	f.Add(flipped)
	badTier := append([]byte(nil), one...)
	badTier[16] = 9
	f.Add(badTier)

	f.Fuzz(func(t *testing.T, data []byte) {
		var re []byte
		var err error
		spent := allocated(func() {
			err = decodeSealed(bytes.NewReader(data), func(lpwan.EUI64, byte, []rollup.Bucket) {})
		})
		if spent > 256<<10 {
			t.Fatalf("decoding %d bytes allocated %d", len(data), spent)
		}
		err2 := decodeSealed(bytes.NewReader(data), func(dev lpwan.EUI64, tier byte, bs []rollup.Bucket) {
			if len(bs) == 0 || len(bs) > maxFrameBuckets || (tier != tierHourly && tier != tierDaily) {
				t.Fatalf("frame out of bounds: tier %d, %d buckets", tier, len(bs))
			}
			re = appendBucketFrame(re, dev, tier, bs)
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

// FuzzManifestLoad feeds arbitrary bytes to LoadFile as the file at the
// -snapshot path, beside a real archive's segments: a manifest may claim
// any name, length or CRC. Loading must not read outside <path>.d, must
// not allocate by the lengths it is told (bound: 8 MiB over a 40 KiB
// archive), and must either restore a consistent store or change nothing.
func FuzzManifestLoad(f *testing.F) {
	dir := f.TempDir()
	snap := filepath.Join(dir, "snapshot.json")
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
	f.Add(valid)
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
