package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"io/fs"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"centuryscale/internal/batch"
	"centuryscale/internal/lpwan"
	"centuryscale/internal/telemetry"
)

// The sealer exists only to be faster than Packet.Seal; it must not be
// different.
func TestSealerMatchesTelemetrySeal(t *testing.T) {
	s := newSealer(fleetMaster)
	for i := 0; i < 50; i++ {
		p := telemetry.Packet{
			Device:        fleetDevice(i % 7),
			Seq:           uint32(i + 1),
			Sensor:        telemetry.SensorType(i % 8),
			Value:         quarter(uint16(i * 13 % quarterRange)),
			UptimeSeconds: uint32(i) * 3600,
		}
		want, err := p.Seal(telemetry.DeriveKey([]byte(fleetMaster), p.Device))
		if err != nil {
			t.Fatal(err)
		}
		if got := s.appendSealed(nil, p); !bytes.Equal(got, want) {
			t.Fatalf("packet %d: sealer wrote %x, telemetry.Seal %x", i, got, want)
		}
	}
}

func buildTestPool(t *testing.T, seed uint64, conn, frames int) *framePool {
	t.Helper()
	b := newPoolBuilder(seed, conn, frames)
	// Two calls, as set-up's timed slices make: the result must not
	// depend on how the work was sliced.
	if err := b.build(frames / 2); err != nil {
		t.Fatal(err)
	}
	if err := b.build(frames - frames/2); err != nil {
		t.Fatal(err)
	}
	return b.pool
}

func TestFramePoolsDeterministic(t *testing.T) {
	a := buildTestPool(t, 7, 0, 12)
	b := buildTestPool(t, 7, 0, 12)
	if !bytes.Equal(a.buf, b.buf) {
		t.Fatal("the same seed and connection gave different frame pools")
	}
	if c := buildTestPool(t, 8, 0, 12); bytes.Equal(a.buf, c.buf) {
		t.Fatal("two seeds gave the same frame pool")
	}
	if c := buildTestPool(t, 7, 1, 12); bytes.Equal(a.buf, c.buf) {
		t.Fatal("two connections gave the same frame pool")
	}
	if len(a.buf) != 12*frameBytes {
		t.Fatalf("pool holds %d bytes, want %d", len(a.buf), 12*frameBytes)
	}
}

// Every frame must be acceptable as it stands: well formed, every packet
// on its own connection's partition, sequence numbers counting up from 1
// with no repeat — the workloads promise the server no duplicates.
func TestFramePoolContents(t *testing.T) {
	rankOf := make(map[lpwan.EUI64]int, fleetSize)
	for r := 0; r < fleetSize; r++ {
		rankOf[fleetDevice(r)] = r
	}
	for conn := 0; conn < connections; conn++ {
		pool := buildTestPool(t, 3, conn, 20)
		next := make(map[lpwan.EUI64]uint32)
		for f := 0; f < pool.n; f++ {
			payload, n, err := batch.Split(pool.frame(f), 0)
			if err != nil || n != framePackets {
				t.Fatalf("conn %d frame %d: Split: n=%d err=%v", conn, f, n, err)
			}
			for i := 0; i < n; i++ {
				wire := batch.Packet(payload, i)
				p, err := telemetry.Parse(wire)
				if err != nil {
					t.Fatal(err)
				}
				rank, ok := rankOf[p.Device]
				if !ok || connOf(rank) != conn {
					t.Fatalf("conn %d carries device %v (rank %d, known %v)", conn, p.Device, rank, ok)
				}
				if _, err := telemetry.Verify(wire, telemetry.DeriveKey([]byte(fleetMaster), p.Device)); err != nil {
					t.Fatalf("conn %d frame %d packet %d: %v", conn, f, i, err)
				}
				next[p.Device]++
				if p.Seq != next[p.Device] {
					t.Fatalf("device %v: seq %d, want %d", p.Device, p.Seq, next[p.Device])
				}
			}
		}
	}
}

// The rank→device mapping and the per-connection partition are part of
// the benchmark's definition: change either and every number moves.
func TestFleetMappingGolden(t *testing.T) {
	h := sha256.New()
	var buf [8]byte
	perConn := make([]int, connections)
	for r := 0; r < fleetSize; r++ {
		dev := fleetDevice(r)
		binary.BigEndian.PutUint64(buf[:], uint64(r))
		h.Write(buf[:])
		h.Write(dev[:])
		h.Write([]byte{byte(connOf(r))})
		perConn[connOf(r)]++
	}
	const want = "e19bf33219d65741fb29cbdd5e2f0f7eca2fa74b86a67f0c8a86f654564ab08a"
	if got := hex.EncodeToString(h.Sum(nil)); got != want {
		t.Errorf("fleet mapping hash %s, golden %s", got, want)
	}
	for c, n := range perConn {
		if n != fleetSize/connections {
			t.Errorf("connection %d owns %d devices, want %d", c, n, fleetSize/connections)
		}
	}
	// The read-back sample is fixed, evenly spaced, and split evenly too.
	ranks := sampleRanks(readBackDevices)
	if ranks[0] != 63 || ranks[len(ranks)-1] != fleetSize-1 {
		t.Errorf("sample ranks run %d..%d", ranks[0], ranks[len(ranks)-1])
	}
}

func TestReadingsOf(t *testing.T) {
	pool := buildTestPool(t, 5, 0, 10)
	want := map[lpwan.EUI64]bool{fleetDevice(0): true, fleetDevice(2): true}
	got := pool.readingsOf(10, want)
	total := 0
	for dev, rs := range got {
		if !want[dev] {
			t.Fatalf("unwanted device %v", dev)
		}
		for i, r := range rs {
			if r.Seq != uint32(i+1) {
				t.Fatalf("%v reading %d has seq %d", dev, i, r.Seq)
			}
		}
		total += len(rs)
	}
	if total == 0 {
		t.Fatal("the two most popular devices of the partition sent nothing in ten frames")
	}
	if fewer := pool.readingsOf(5, want); len(fewer[fleetDevice(0)]) >= len(got[fleetDevice(0)]) {
		t.Fatal("half the frames did not carry fewer readings")
	}
}

func dirDigest(t *testing.T, root string) string {
	t.Helper()
	h := sha256.New()
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil || !d.Type().IsRegular() {
			return err
		}
		rel, _ := filepath.Rel(root, path)
		b, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		h.Write([]byte(rel))
		h.Write(b)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// testArchiveHours is long enough to have folded buckets in both tiers
// and a raw tail, short enough to build in a fraction of a second.
const testArchiveHours = 24 * 60

func TestAgedArchiveDeterministic(t *testing.T) {
	build := func(seed uint64) (string, *agedArchive) {
		dir := t.TempDir()
		a, err := buildAged(dir, seed, testArchiveHours)
		if err != nil {
			t.Fatal(err)
		}
		return dirDigest(t, dir), a
	}
	one, a := build(4)
	two, _ := build(4)
	if one != two {
		t.Fatal("the same seed gave different archives (snapshot or WAL bytes differ)")
	}
	if other, _ := build(5); other == one {
		t.Fatal("two seeds gave the same archive")
	}
	if want := testArchiveHours*agedDevices + tailRecords; a.points != want {
		t.Fatalf("archive holds %d points, want %d", a.points, want)
	}
	if len(a.ingestSlices) != agedSlices {
		t.Fatalf("%d timed ingest slices, want %d", len(a.ingestSlices), agedSlices)
	}

	// The reference is the generator's own sum over its own values.
	sealed := 5 * week
	ref := a.referenceWeeks(3, sealed)
	if len(ref) != 5 {
		t.Fatalf("%d reference weeks, want 5", len(ref))
	}
	for w, got := range ref {
		var want weekly
		for h := 0; h < a.hours; h++ {
			if at := agedAt(h); at >= time.Duration(w)*week && at < time.Duration(w+1)*week {
				want.Count++
				want.Sum += float64(quarter(a.quarters[3][h]))
			}
		}
		if got != want {
			t.Fatalf("week %d: reference %+v, brute force %+v", w, got, want)
		}
	}
}

func TestSchedulesDeterministic(t *testing.T) {
	r1, r2, r3 := readSchedule(9, 500, agedReadsPerS), readSchedule(9, 500, agedReadsPerS), readSchedule(10, 500, agedReadsPerS)
	if !reflect.DeepEqual(r1, r2) {
		t.Fatal("the same seed gave different read schedules")
	}
	if reflect.DeepEqual(r1, r3) {
		t.Fatal("two seeds gave the same read schedule")
	}
	kinds := map[readKind]int{}
	for i, r := range r1 {
		if want := time.Duration(i) * (time.Second / agedReadsPerS); r.Due != want {
			t.Fatalf("read %d due at %v, want %v", i, r.Due, want)
		}
		kinds[r.Kind]++
	}
	if kinds[readWindows] < 350 || kinds[readHistory] < 20 || kinds[readGaps] < 20 {
		t.Fatalf("read mix %v is not 80/10/10", kinds)
	}

	w1, w2, w3 := writeSchedule(9, 64, agedWritesPerS, 100), writeSchedule(9, 64, agedWritesPerS, 100), writeSchedule(10, 64, agedWritesPerS, 100)
	if !reflect.DeepEqual(w1, w2) {
		t.Fatal("the same seed gave different write schedules")
	}
	if reflect.DeepEqual(w1, w3) {
		t.Fatal("two seeds gave the same write schedule")
	}
	for i, w := range w1 {
		p, err := telemetry.Verify(w.Wire, telemetry.DeriveKey([]byte(fleetMaster), agedDevice(w.Device)))
		if err != nil {
			t.Fatalf("write %d: %v", i, err)
		}
		// One virtual hour after the device's previous reading, continuing
		// the archive's sequence.
		if w.Device != i%agedDevices || w.Hour != 100+i/agedDevices || p.Seq != uint32(w.Hour+1) || w.Arrival != agedAt(w.Hour) {
			t.Fatalf("write %d: device %d hour %d seq %d arrival %v", i, w.Device, w.Hour, p.Seq, w.Arrival)
		}
	}
}
