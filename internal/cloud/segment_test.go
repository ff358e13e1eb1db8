package cloud

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"centuryscale/internal/lpwan"
	"centuryscale/internal/rollup"
	"centuryscale/internal/telemetry"
)

// fuzzGeometry is the default tier geometry, the widths compact frames
// are decoded with in these tests.
var fuzzGeometry = rollup.Config{Hourly: time.Hour, Daily: 24 * time.Hour}

// mustCompact is appendCompactFrame at fuzzGeometry's width for tier.
func mustCompact(t testing.TB, dst []byte, dev lpwan.EUI64, tier byte, bs []rollup.Bucket) []byte {
	t.Helper()
	width := fuzzGeometry.Hourly
	if dailyTier(tier) {
		width = fuzzGeometry.Daily
	}
	out, err := appendCompactFrame(dst, dev, tier, width, bs)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// appendFixedFrame is the fixed-width encoder that builds before
// manifest version 4 wrote every sealed frame with: 60 big-endian bytes
// a bucket (FORMAT.md). Only the tests write fixed frames now; it is the
// reference the load-only decodeFixed is held to.
func appendFixedFrame(dst []byte, dev lpwan.EUI64, tier byte, bs []rollup.Bucket) []byte {
	body := make([]byte, 0, len(bs)*fixedBucketSize)
	for _, b := range bs {
		body = binary.BigEndian.AppendUint64(body, uint64(b.Start))
		body = binary.BigEndian.AppendUint64(body, b.Count)
		body = binary.BigEndian.AppendUint64(body, math.Float64bits(b.Sum))
		body = binary.BigEndian.AppendUint32(body, math.Float32bits(b.Min))
		body = binary.BigEndian.AppendUint32(body, math.Float32bits(b.Max))
		body = binary.BigEndian.AppendUint64(body, uint64(b.First))
		body = binary.BigEndian.AppendUint64(body, uint64(b.Last))
		body = binary.BigEndian.AppendUint64(body, uint64(b.MaxGap))
		body = binary.BigEndian.AppendUint32(body, b.MaxSeq)
	}
	return append(dst, reframe(dev, tier, uint32(len(bs)), body)...)
}

// reframe wraps a body in a frame header with a correct length and CRC,
// so that a hand-made body reaches the bucket decoder.
func reframe(dev lpwan.EUI64, tier byte, count uint32, body []byte) []byte {
	frame := binary.BigEndian.AppendUint32(nil, uint32(segFrameHeader-8+len(body)))
	frame = binary.BigEndian.AppendUint32(frame, 0)
	frame = append(frame, dev[:]...)
	frame = append(frame, tier)
	frame = binary.BigEndian.AppendUint32(frame, count)
	frame = append(frame, body...)
	binary.BigEndian.PutUint32(frame[4:], crc32.Checksum(frame[8:], castagnoli))
	return frame
}

// singleBody is the compact hourly body of one bucket: start 0, first
// arrival on it, max seq 1, value 1.0. fullOfOne is the same bucket in
// the full form, which the decoder must refuse.
var (
	singleBody = []byte{formSingle, 0x00, 0x00, 0x02, 0x3f, 0x80, 0, 0}
	fullOfOne  = append(append([]byte{formFull, 0x00, 0x00, 0x02, 0x01},
		0x3f, 0xf0, 0, 0, 0, 0, 0, 0, // sum 1.0
		0x3f, 0x80, 0, 0, 0x3f, 0x80, 0, 0), // min, max 1.0
		0x00, 0x00) // last − first, max gap
)

// compactRefusals are compact frame bodies the decoder must refuse, each
// with a count and the words its error must contain: every rule that
// keeps the encoding canonical and every bound, one body each.
var compactRefusals = []struct {
	name  string
	count uint32
	body  []byte
	want  string
}{
	{"non-minimal varint", 1, []byte{formSingle, 0x80, 0x00, 0x00, 0x02, 0x3f, 0x80, 0, 0}, "not minimal"},
	{"full form the single form carries", 1, fullOfOne, "single form carries"},
	{"unknown form", 1, append([]byte{2}, singleBody[1:]...), "unknown form"},
	{"trailing byte", 1, append(append([]byte(nil), singleBody...), 0), "after the last bucket"},
	{"short", 1, singleBody[:len(singleBody)-1], "short"},
	{"a bucket missing", 2, singleBody, "short"},
	{"start does not ascend", 2, append(append([]byte(nil), singleBody...), formSingle, 0x00, 0x00, 0x02, 0x3f, 0x80, 0, 0), "does not ascend"},
	{"start overflows", 1, append(binary.AppendVarint([]byte{formSingle}, math.MaxInt64/int64(time.Hour)+1), 0x00, 0x02, 0x3f, 0x80, 0, 0), "start overflows"},
	{"first arrival overflows", 1, append(binary.AppendUvarint([]byte{formSingle, 0x02}, math.MaxInt64), 0x02, 0x3f, 0x80, 0, 0), "time overflows"},
	{"max seq below zero", 1, []byte{formSingle, 0x00, 0x00, 0x01, 0x3f, 0x80, 0, 0}, "max seq"},
	{"max seq past 32 bits", 1, append(binary.AppendVarint([]byte{formSingle, 0x00, 0x00}, 1<<32), 0x3f, 0x80, 0, 0), "max seq"},
	{"max gap overflows", 1, append(append([]byte(nil), fullOfOne[:len(fullOfOne)-1]...), 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x01), "time overflows"},
	{"varint past 64 bits", 1, []byte{formSingle, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x7f}, "overflows 64 bits"},
}

// TestCompactFrameRefusals: the decoder takes the one valid body and
// refuses every body of compactRefusals, naming what is wrong.
func TestCompactFrameRefusals(t *testing.T) {
	read := func(frame []byte) ([]rollup.Bucket, error) {
		var got []rollup.Bucket
		err := decodeSealed(strings.NewReader(string(frame)), fuzzGeometry, func(_ lpwan.EUI64, _ byte, bs []rollup.Bucket) {
			got = append(got, bs...)
		})
		return got, err
	}
	dev := lpwan.EUIFromUint64(7)
	got, err := read(reframe(dev, tierHourly, 1, singleBody))
	if want := (rollup.Bucket{Count: 1, Sum: 1, Min: 1, Max: 1, MaxSeq: 1}); err != nil || len(got) != 1 || got[0] != want {
		t.Fatalf("valid single-form body: %+v, %v; want %+v", got, err, want)
	}
	for _, tc := range compactRefusals {
		if _, err := read(reframe(dev, tierHourly, tc.count, tc.body)); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: %v, want an error saying %q", tc.name, err, tc.want)
		}
	}
	if err := decodeSealed(strings.NewReader(string(reframe(dev, tierHourly, 1, singleBody))), rollup.Config{}, func(lpwan.EUI64, byte, []rollup.Bucket) {}); err == nil {
		t.Error("a compact frame decoded without a tier width")
	}
	long := reframe(dev, tierHourly, 1, make([]byte, maxCompactBucket+1))
	if _, err := read(long); err == nil || !strings.Contains(err.Error(), "bad frame header") {
		t.Errorf("a one-bucket frame longer than the longest bucket: %v, want a bad frame header", err)
	}
}

// TestSealedBytesPinned pins, byte for byte, the sealed segment a year of
// one hourly reporter checkpoints to: arriving on the hour, and arriving
// anywhere in the hour. DESIGN.md S49 quotes the per-bucket figures; a
// change to them is a format change and must say so there and in
// FORMAT.md.
func TestSealedBytesPinned(t *testing.T) {
	for _, tc := range []struct {
		name                    string
		jitter                  func(h int) time.Duration
		size                    int64
		crc                     uint32
		hourlyBytes, dailyBytes int
	}{
		{"on the hour", func(int) time.Duration { return 0 }, 82450, 0xb8e7e0e9, 70087, 12363},
		{"jittered", func(h int) time.Duration {
			return time.Duration(uint64(h)*0x9E3779B97F4A7C15>>40%3_600_000) * time.Millisecond
		}, 128173, 0x867b6c24, 113667, 14506},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s := NewStore(StaticKeys(master))
			if err := s.EnableRollups(rollup.Config{}, 24*time.Hour); err != nil {
				t.Fatal(err)
			}
			for h := 0; h < 365*24; h++ {
				at := time.Duration(h)*time.Hour + tc.jitter(h)
				if err := s.Ingest(at, sealed(t, 0x5EED, uint32(h+1), 10+float32(h%24)/2)); err != nil {
					t.Fatal(err)
				}
			}
			snap := filepath.Join(t.TempDir(), "snapshot.json")
			if err := s.Checkpoint(snap); err != nil {
				t.Fatal(err)
			}
			m := readManifest(t, snap)
			if len(m.Sealed) != 1 {
				t.Fatalf("%d sealed segments, want 1", len(m.Sealed))
			}
			seg, err := os.ReadFile(filepath.Join(snap+".d", m.Sealed[0].Name))
			if err != nil {
				t.Fatal(err)
			}
			var n, bytes [2]int // by tier: hourly, daily
			err = readDataFile(snap+".d", m.Sealed[0], sealedPrefix, func(r io.Reader) error {
				return decodeSealed(r, fuzzGeometry, func(dev lpwan.EUI64, tier byte, bs []rollup.Bucket) {
					i := 0
					if dailyTier(tier) {
						i = 1
					}
					n[i] += len(bs)
					bytes[i] += len(mustCompact(t, nil, dev, tier, bs))
				})
			})
			if err != nil {
				t.Fatal(err)
			}
			t.Logf("%d B sealed: %d hourly buckets in %d B (%.2f B each), %d daily in %d B (%.2f B each); CRC-32C %08x",
				len(seg), n[0], bytes[0], float64(bytes[0])/float64(n[0]), n[1], bytes[1], float64(bytes[1])/float64(n[1]), crc32.Checksum(seg, castagnoli))
			if int64(len(seg)) != tc.size || crc32.Checksum(seg, castagnoli) != tc.crc || bytes != [2]int{tc.hourlyBytes, tc.dailyBytes} {
				t.Errorf("sealed segment: %d B, CRC-32C %08x, tiers %v B; pinned %d B, %08x, [%d %d] B",
					len(seg), crc32.Checksum(seg, castagnoli), bytes, tc.size, tc.crc, tc.hourlyBytes, tc.dailyBytes)
			}
		})
	}
}

// hourlyYear is a store at default flags — no retention window, so every
// reading stays raw — fed a year of one hourly reporter, arriving jitter(h)
// past hour h, its uptime counting seconds since the data clock's zero.
func hourlyYear(tb testing.TB, jitter func(h int) time.Duration) *Store {
	s := NewStore(StaticKeys(master))
	dev := lpwan.EUIFromUint64(0x5EED)
	key := telemetry.DeriveKey(master, dev)
	for h := 0; h < 365*24; h++ {
		at := time.Duration(h)*time.Hour + jitter(h)
		wire, err := telemetry.Packet{Device: dev, Seq: uint32(h + 1), Sensor: telemetry.SensorStrain, Value: 10 + float32(h%24)/2, UptimeSeconds: uint32(at / time.Second)}.Seal(key)
		if err != nil {
			tb.Fatal(err)
		}
		if err := s.Ingest(at, wire); err != nil {
			tb.Fatal(err)
		}
	}
	return s
}

// TestTailBytesPinned pins, byte for byte, the tail a year of one hourly
// reporter checkpoints to at the default -retain-raw 0, where every raw
// reading stays in the tail: arriving on the hour, and arriving anywhere
// in the hour, its uptime counting seconds since the data clock's zero.
// DESIGN.md S59 quotes the per-reading figures; a change to them is a
// format change and must say so there and in FORMAT.md.
func TestTailBytesPinned(t *testing.T) {
	const readings = 365 * 24
	for _, tc := range []struct {
		name       string
		jitter     func(h int) time.Duration
		size       int64
		crc        uint32
		perReading string
	}{
		{"on the hour", func(int) time.Duration { return 0 }, 70751, 0x9264ef92, "8.08"},
		{"jittered", func(h int) time.Duration {
			return time.Duration(uint64(h)*0x9E3779B97F4A7C15>>40%3_600_000) * time.Millisecond
		}, 120749, 0xddc80652, "13.78"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s := hourlyYear(t, tc.jitter)
			snap := filepath.Join(t.TempDir(), "snapshot.json")
			if err := s.Checkpoint(snap); err != nil {
				t.Fatal(err)
			}
			m := readManifest(t, snap)
			tail, err := os.ReadFile(filepath.Join(snap+".d", m.Tail.Name))
			if err != nil {
				t.Fatal(err)
			}
			if len(m.Sealed) != 0 || s.db.Stats().Points != readings {
				t.Fatalf("%d sealed segments, %d raw points: want every reading raw, in the tail", len(m.Sealed), s.db.Stats().Points)
			}
			sum, per := crc32.Checksum(tail, castagnoli), fmt.Sprintf("%.2f", float64(len(tail))/readings)
			t.Logf("%d B tail: %s B a reading, where point records take 38; CRC-32C %08x", len(tail), per, sum)
			if int64(len(tail)) != tc.size || sum != tc.crc || per != tc.perReading {
				t.Errorf("tail: %d B, CRC-32C %08x, %s B a reading; pinned %d B, %08x, %s B", len(tail), sum, per, tc.size, tc.crc, tc.perReading)
			}
		})
	}
}
