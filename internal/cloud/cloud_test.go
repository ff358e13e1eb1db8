package cloud

import (
	"errors"
	"sync"
	"testing"
	"time"

	"centuryscale/internal/lpwan"
	"centuryscale/internal/sim"
	"centuryscale/internal/telemetry"
)

var master = []byte("fleet-master-secret")

func sealed(t testing.TB, dev uint64, seq uint32, value float32) []byte {
	t.Helper()
	id := lpwan.EUIFromUint64(dev)
	wire, err := telemetry.Packet{
		Device: id, Seq: seq, Sensor: telemetry.SensorStrain, Value: value,
	}.Seal(telemetry.DeriveKey(master, id))
	if err != nil {
		t.Fatal(err)
	}
	return wire
}

func TestIngestAccepts(t *testing.T) {
	s := NewStore(StaticKeys(master))
	if err := s.Ingest(time.Hour, sealed(t, 1, 1, 20.5)); err != nil {
		t.Fatal(err)
	}
	if s.Count() != 1 {
		t.Fatalf("count = %d", s.Count())
	}
	h := s.History(lpwan.EUIFromUint64(1))
	if len(h) != 1 || h[0].Packet.Value != 20.5 || h[0].At != time.Hour {
		t.Fatalf("history = %+v", h)
	}
}

func TestIngestRejectsBadSignature(t *testing.T) {
	s := NewStore(StaticKeys(master))
	wire := sealed(t, 1, 1, 1)
	wire[15] ^= 0xff
	if err := s.Ingest(0, wire); err == nil {
		t.Fatal("tampered packet accepted")
	}
	if st := s.Stats(); st.BadSignature != 1 || st.Accepted != 0 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestIngestRejectsMalformed(t *testing.T) {
	s := NewStore(StaticKeys(master))
	if err := s.Ingest(0, []byte("not a packet")); err == nil {
		t.Fatal("malformed accepted")
	}
	if st := s.Stats(); st.Malformed != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestIngestRejectsUnknownDevice(t *testing.T) {
	known := lpwan.EUIFromUint64(7)
	resolver := func(dev lpwan.EUI64) (telemetry.Key, bool) {
		if dev == known {
			return telemetry.DeriveKey(master, dev), true
		}
		return nil, false
	}
	s := NewStore(resolver)
	if err := s.Ingest(0, sealed(t, 8, 1, 1)); !errors.Is(err, ErrUnknownDevice) {
		t.Fatalf("unknown device err = %v", err)
	}
	if err := s.Ingest(0, sealed(t, 7, 1, 1)); err != nil {
		t.Fatal(err)
	}
}

// TestConcurrentIngestStats hammers every disposition counter from many
// goroutines and checks the totals are exact. Run under -race this also
// pins the locking contract: disposition counting is lock-free atomics,
// not the aux mutex.
func TestConcurrentIngestStats(t *testing.T) {
	const workers, each = 8, 200
	s := NewStore(StaticKeys(master))

	type load struct{ good, bad, junk, unknown [][]byte }
	loads := make([]load, workers)
	unknownKeys := StaticKeys([]byte("some other fleet"))
	for w := 0; w < workers; w++ {
		for i := 0; i < each; i++ {
			good := sealed(t, uint64(w+1), uint32(i+1), 1)
			bad := sealed(t, uint64(w+1), uint32(i+1), 1)
			bad[15] ^= 0xff
			id := lpwan.EUIFromUint64(uint64(1000 + w))
			key, _ := unknownKeys(id)
			stranger, err := telemetry.Packet{Device: id, Seq: uint32(i + 1)}.Seal(key)
			if err != nil {
				t.Fatal(err)
			}
			loads[w].good = append(loads[w].good, good)
			loads[w].bad = append(loads[w].bad, bad)
			loads[w].junk = append(loads[w].junk, []byte("junk"))
			loads[w].unknown = append(loads[w].unknown, stranger)
		}
	}
	resolver := func(dev lpwan.EUI64) (telemetry.Key, bool) {
		if dev.Uint64() >= 1000 {
			return nil, false
		}
		return telemetry.DeriveKey(master, dev), true
	}
	s = NewStore(resolver)

	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(l load) {
			defer wg.Done()
			for i := 0; i < each; i++ {
				at := time.Duration(i) * time.Hour
				_ = s.Ingest(at, l.good[i]) // accepted
				_ = s.Ingest(at, l.good[i]) // duplicate (same device, same seq)
				_ = s.Ingest(at, l.bad[i])
				_ = s.Ingest(at, l.junk[i])
				_ = s.Ingest(at, l.unknown[i])
			}
		}(loads[w])
	}
	wg.Wait()

	want := IngestStats{
		Accepted:     workers * each,
		Duplicates:   workers * each,
		BadSignature: workers * each,
		Malformed:    workers * each,
		UnknownDev:   workers * each,
	}
	if got := s.Stats(); got != want {
		t.Fatalf("stats = %+v, want %+v", got, want)
	}
	if s.Count() != workers*each {
		t.Fatalf("count = %d, want %d", s.Count(), workers*each)
	}
}

func TestDuplicateViaSecondGateway(t *testing.T) {
	s := NewStore(StaticKeys(master))
	wire := sealed(t, 1, 5, 1)
	if err := s.Ingest(time.Hour, wire); err != nil {
		t.Fatal(err)
	}
	// The same packet relayed by another gateway minutes later.
	if err := s.Ingest(time.Hour+3*time.Minute, wire); err == nil {
		t.Fatal("duplicate accepted twice")
	}
	st := s.Stats()
	if st.Accepted != 1 || st.Duplicates != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestOutOfOrderWithinWindow(t *testing.T) {
	s := NewStore(StaticKeys(master))
	if err := s.Ingest(0, sealed(t, 1, 10, 1)); err != nil {
		t.Fatal(err)
	}
	// Seq 9 arrives late via the slower gateway: within window, accept.
	if err := s.Ingest(time.Minute, sealed(t, 1, 9, 1)); err != nil {
		t.Fatalf("in-window out-of-order rejected: %v", err)
	}
}

func TestWeeklyUptime(t *testing.T) {
	s := NewStore(StaticKeys(master))
	// Packets in weeks 0, 1, 3 of a 4-week horizon: 3/4 uptime.
	for i, at := range []time.Duration{sim.Day, sim.Week + sim.Day, 3*sim.Week + sim.Day} {
		if err := s.Ingest(at, sealed(t, 1, uint32(i+1), 1)); err != nil {
			t.Fatal(err)
		}
	}
	if got := s.WeeklyUptime(4 * sim.Week); got != 0.75 {
		t.Fatalf("weekly uptime = %v, want 0.75", got)
	}
}

func TestWeeklyUptimeEmptyHorizon(t *testing.T) {
	s := NewStore(StaticKeys(master))
	if got := s.WeeklyUptime(time.Hour); got != 0 {
		t.Fatalf("uptime over sub-week horizon = %v", got)
	}
}

func TestDevicesSorted(t *testing.T) {
	s := NewStore(StaticKeys(master))
	for i, dev := range []uint64{9, 3, 7} {
		if err := s.Ingest(0, sealed(t, dev, uint32(i+1), 1)); err != nil {
			t.Fatal(err)
		}
	}
	devs := s.Devices()
	if len(devs) != 3 || devs[0].Uint64() != 3 || devs[2].Uint64() != 9 {
		t.Fatalf("devices = %v", devs)
	}
}
