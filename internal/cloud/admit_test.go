package cloud

import (
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"testing"
	"time"

	"centuryscale/internal/batch"
	"centuryscale/internal/lpwan"
	"centuryscale/internal/rollup"
	"centuryscale/internal/sim"
	"centuryscale/internal/telemetry"
	"centuryscale/internal/tsdb"
)

func frameOf(t *testing.T, wires ...[]byte) []byte {
	t.Helper()
	f, err := batch.AppendFrame(nil, wires...)
	if err != nil {
		t.Fatal(err)
	}
	return f
}

// TestVerifierCacheIsPerStore is F8: the per-device verifier cache rides
// in admission's pooled scratch, so the pool must belong to the store
// whose KeyResolver filled it. Three stores in one process — the fleet's
// master, no devices at all, another master — are offered the same
// frames and packets in turn; only the first may accept anything.
func TestVerifierCacheIsPerStore(t *testing.T) {
	fleet := NewStore(StaticKeys(master))
	nobody := NewStore(func(lpwan.EUI64) (telemetry.Key, bool) { return nil, false })
	other := NewStore(StaticKeys([]byte("some-other-fleet-master")))

	const rounds, perFrame = 6, 4
	offered := 0
	for r := 0; r < rounds; r++ {
		wires := make([][]byte, perFrame)
		for i := range wires {
			wires[i] = sealed(t, uint64(i+1), uint32(2*r+1), 1)
		}
		frame := frameOf(t, wires...)
		single := sealed(t, 1, uint32(2*r+2), 1)
		at := time.Duration(r+1) * time.Minute
		for _, s := range []*Store{fleet, nobody, other} {
			if _, err := s.IngestBatch(at, frame); err != nil {
				t.Fatal(err)
			}
			_ = s.Ingest(at, single)
		}
		offered += perFrame + 1
	}

	want := uint64(offered)
	if st := fleet.Stats(); st.Accepted != want {
		t.Errorf("the fleet's own store: %+v, want %d accepted", st, want)
	}
	if st := nobody.Stats(); st.Accepted != 0 || st.UnknownDev != want {
		t.Errorf("store that knows no devices: %+v, want 0 accepted and %d unknown", st, want)
	}
	if st := other.Stats(); st.Accepted != 0 || st.BadSignature != want {
		t.Errorf("store under another master: %+v, want 0 accepted and %d bad signatures", st, want)
	}
}

// TestAdmitAllocBudgets measures admission's allocations, on a
// memory-only store and on a WAL-backed one (the endpoint's own shape): in
// steady state — the device's guard entry and verifier exist, the scratch
// comes back from the pool — a lone packet and a whole frame each cost 0.
// Steady state is the median call: a call that finds the pool empty
// (first use, after a GC, and one Put in four under -race) rebuilds the
// scratch and the verifiers it meets, and the memtable and guard maps grow
// now and then. The lone packets come from one device and every frame
// holds all eight, so a rebuilt scratch is warm again after one call:
// under -race a scratch lives four calls on average, fewer than it would
// take lone packets to meet eight devices again. Before F9 the WAL-backed
// row cost one allocation per packet; before F11 a re-offered frame, all
// duplicates, cost four per packet.
func TestAdmitAllocBudgets(t *testing.T) {
	const (
		devices  = 8
		calls    = 101
		perFrame = 64
	)
	median := func(call func()) float64 {
		got := make([]float64, calls)
		for i := range got {
			// AllocsPerRun(1, …) runs call twice and counts the second.
			got[i] = testing.AllocsPerRun(1, call)
		}
		sort.Float64s(got)
		return got[calls/2]
	}
	db, err := tsdb.Open(tsdb.Options{Dir: t.TempDir(), Shards: 4, Sync: tsdb.SyncNever})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()

	for _, row := range []struct {
		name string
		s    *Store
	}{
		{"memory-only", NewStore(StaticKeys(master))},
		{"WAL-backed", NewStoreWithDB(StaticKeys(master), db)},
	} {
		s, seq := row.s, uint32(0)
		singles := make([][]byte, 2*calls)
		for i := range singles {
			seq++
			singles[i] = sealed(t, 1, seq, 1)
		}
		i := 0
		if got := median(func() {
			if err := s.Ingest(time.Duration(i)*time.Second, singles[i]); err != nil {
				t.Fatal(err)
			}
			i++
		}); got != 0 {
			t.Errorf("%s: Ingest allocates %.0f times per packet in steady state, want 0", row.name, got)
		}

		frames := make([][]byte, 2*calls)
		for i := range frames {
			wires := make([][]byte, perFrame)
			for j := range wires {
				seq++
				wires[j] = sealed(t, uint64(seq%devices+1), seq, 1)
			}
			frames[i] = frameOf(t, wires...)
		}
		i = 0
		if got := median(func() {
			res, err := s.IngestBatch(time.Hour+time.Duration(i)*time.Second, frames[i])
			if err != nil || res.Accepted != perFrame {
				t.Fatalf("frame %d: %+v, %v", i, res, err)
			}
			i++
		}); got != 0 {
			t.Errorf("%s: IngestBatch allocates %.0f times per %d-packet frame in steady state, want 0", row.name, got, perFrame)
		}

		// The same frames re-offered, as a gateway retries a frame answered
		// ErrPersist: every packet is a duplicate, and a duplicate in a
		// frame builds no error (F11).
		i = 0
		if got := median(func() {
			res, err := s.IngestBatch(2*time.Hour+time.Duration(i)*time.Second, frames[i])
			if err != nil || res.Duplicates != perFrame {
				t.Fatalf("re-offered frame %d: %+v, %v", i, res, err)
			}
			i++
		}); got != 0 {
			t.Errorf("%s: a re-offered %d-packet frame allocates %.0f times, want 0", row.name, perFrame, got)
		}
	}
}

// TestFrameOrderMeansNothing pins the frame semantics of S42 that the
// replay guard's pass in admit must keep: inside one frame every packet is
// judged against the guard as it stood before the frame, so a frame
// holding one device's seq 30 and then seq 5 — 25 apart, wider than the
// window — admits both. Afterwards the guard is the one the frame's
// highest seq left: a lone seq 5 is a replay, and an unseen seq 20 inside
// the window lands.
func TestFrameOrderMeansNothing(t *testing.T) {
	s := NewStore(StaticKeys(master))
	res, err := s.IngestBatch(time.Minute, frameOf(t, sealed(t, 1, 30, 1), sealed(t, 1, 5, 2)))
	if err != nil || res.Accepted != 2 {
		t.Fatalf("frame [30, 5]: %+v, %v; want both accepted", res, err)
	}
	if err := s.Ingest(2*time.Minute, sealed(t, 1, 5, 2)); !errors.Is(err, telemetry.ErrReplay) {
		t.Errorf("lone seq 5 after the frame: %v, want ErrReplay", err)
	}
	if err := s.Ingest(3*time.Minute, sealed(t, 1, 20, 3)); err != nil {
		t.Errorf("lone unseen seq 20 after the frame: %v, want accepted", err)
	}
	if got := len(s.History(lpwan.EUIFromUint64(1))); got != 3 {
		t.Errorf("history holds %d readings, want 3", got)
	}
}

// TestSinglesAndFramesAgree is the differential check on "a packet is a
// frame of one": random offers — fresh, duplicate, reordered inside the
// replay window, below it, sealed by a fold, quarantined, lapsed, from an
// unknown device, with a bad tag — go to one store packet by packet and
// to its twin as frames of random sizes, and the two must end in the same
// state. The singles' errors, by identity, must also add up to the
// frames' BatchResults.
func TestSinglesAndFramesAgree(t *testing.T) {
	const (
		known     = 6
		strangers = 1000 // device ids from here up are refused by the resolver
		retainRaw = 20 * sim.Day
	)
	keys := func(dev lpwan.EUI64) (telemetry.Key, bool) {
		if dev.Uint64() >= strangers {
			return nil, false
		}
		return telemetry.DeriveKey(master, dev), true
	}
	for seed := int64(1); seed <= 8; seed++ {
		t.Run(fmt.Sprint("seed", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))

			// The packets, in the order they are offered.
			var stream [][]byte
			next := make(map[uint64]uint32)
			for len(stream) < 600 {
				dev := uint64(1 + rng.Intn(known))
				switch r := rng.Intn(100); {
				case r < 60:
					next[dev]++
					stream = append(stream, sealed(t, dev, next[dev], float32(len(stream))))
				case r < 75 && len(stream) > 0:
					// Offered before: just now (inside the window, seen)
					// or long ago (below it).
					stream = append(stream, stream[rng.Intn(len(stream))])
				case r < 85:
					stream = append(stream, sealed(t, uint64(strangers+rng.Intn(3)), 1, 0))
				default:
					forged := sealed(t, dev, next[dev]+1, 0)
					forged[telemetry.PacketSize-1] ^= 1
					stream = append(stream, forged)
				}
			}
			// Reorder locally: a device's packets move at most two places,
			// well inside the replay window, where arrival order inside a
			// frame and between lone packets cannot matter.
			for i := 0; i+2 < len(stream); i++ {
				if rng.Intn(4) == 0 {
					j := i + 1 + rng.Intn(2)
					stream[i], stream[j] = stream[j], stream[i]
				}
			}

			singles, frames := NewStore(keys), NewStore(keys)
			for _, s := range []*Store{singles, frames} {
				if err := s.EnableRollups(rollup.Config{}, retainRaw); err != nil {
					t.Fatal(err)
				}
				s.AddLapse(25*sim.Day, 27*sim.Day)
				s.Quarantine(lpwan.EUIFromUint64(3), 40*sim.Day)
			}

			var bySingles, byFrames BatchResult
			now, nextFold := time.Duration(0), 30*sim.Day
			for len(stream) > 0 {
				k := min(1+rng.Intn(8), len(stream))
				group := stream[:k]
				stream = stream[k:]
				now += time.Duration(rng.Int63n(int64(36 * time.Hour)))
				at := now
				if rng.Intn(10) == 0 && now > 45*sim.Day {
					at = now - 45*sim.Day // late: below the fold watermark once one has run
				}
				if now >= nextFold {
					nextFold += 30 * sim.Day
					if a, b := singles.FoldRollups(now), frames.FoldRollups(now); a != b {
						t.Fatalf("fold at %v summarized %d points of the singles store and %d of the frames store", now, a, b)
					}
				}

				for _, wire := range group {
					bySingles.Total++
					switch err := singles.Ingest(at, wire); {
					case err == nil:
						bySingles.Accepted++
					case errors.Is(err, telemetry.ErrReplay):
						bySingles.Duplicates++
					case errors.Is(err, ErrSealed):
						bySingles.Stale++
					case errors.Is(err, ErrQuarantined), errors.Is(err, ErrUnknownDevice),
						errors.Is(err, telemetry.ErrBadTag), errors.Is(err, ErrLeaseLapsed):
						bySingles.Rejected++
					default:
						t.Fatalf("Ingest(%v): unexpected error %v", at, err)
					}
				}
				res, err := frames.IngestBatch(at, frameOf(t, group...))
				if err != nil && !errors.Is(err, ErrLeaseLapsed) {
					t.Fatalf("IngestBatch(%v): %v", at, err)
				}
				byFrames.Total += res.Total
				byFrames.Accepted += res.Accepted
				byFrames.Duplicates += res.Duplicates
				byFrames.Rejected += res.Rejected
				byFrames.Stale += res.Stale
			}

			if bySingles != byFrames {
				t.Errorf("dispositions differ:\n  singles %+v\n  frames  %+v", bySingles, byFrames)
			}
			st := singles.Stats()
			if got := frames.Stats(); got != st {
				t.Errorf("Stats differ:\n  singles %+v\n  frames  %+v", st, got)
			}
			for _, n := range []uint64{st.Accepted, st.Duplicates, st.BadSignature, st.UnknownDev, st.LeaseLapsed, st.Quarantined, st.Stale} {
				if n == 0 {
					t.Errorf("the mix left a disposition unexercised: %+v", st)
					break
				}
			}
			if a, b := singles.Devices(), frames.Devices(); !reflect.DeepEqual(a, b) {
				t.Fatalf("Devices differ: %v vs %v", a, b)
			}
			for _, dev := range singles.Devices() {
				if a, b := singles.History(dev), frames.History(dev); !reflect.DeepEqual(a, b) {
					t.Errorf("History(%v) differs:\n  singles %v\n  frames  %v", dev, a, b)
				}
			}
			if a, b := singles.WeeklyUptime(now), frames.WeeklyUptime(now); a != b {
				t.Errorf("WeeklyUptime differs: %v vs %v", a, b)
			}
			if a, b := singles.Rollups().Snapshot(), frames.Rollups().Snapshot(); !reflect.DeepEqual(a, b) {
				t.Errorf("rollup buckets differ")
			}
		})
	}
}
