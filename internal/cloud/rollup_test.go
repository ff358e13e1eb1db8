package cloud

import (
	"bytes"
	"encoding/json"
	"errors"
	"path/filepath"
	"testing"
	"time"

	"centuryscale/internal/lpwan"
	"centuryscale/internal/rollup"
	"centuryscale/internal/tsdb"
)

// feedRollupTraffic ingests a deterministic 5-day stream for two
// devices (20-minute cadence, integer values) and returns the total
// packet count. Every test in this file feeds the identical stream, so
// bucket state is comparable byte-for-byte across stores.
func feedRollupTraffic(t *testing.T, s *Store) int {
	t.Helper()
	n := 0
	for _, dev := range []uint64{0xA1, 0xA2} {
		seq := uint32(0)
		for at := time.Duration(dev%7) * time.Minute; at < 5*24*time.Hour; at += 20 * time.Minute {
			seq++
			if err := s.Ingest(at, sealed(t, dev, seq, float32(seq%17))); err != nil {
				t.Fatalf("ingest dev %x seq %d: %v", dev, seq, err)
			}
			n++
		}
	}
	return n
}

// controlRollupState folds the same traffic in a fresh memory store and
// returns its serialized bucket state: the byte-determinism baseline
// every crash scenario must converge to.
func controlRollupState(t *testing.T, retain time.Duration) ([]byte, *Store) {
	t.Helper()
	s := NewStore(StaticKeys(master))
	if err := s.EnableRollups(rollup.Config{}, retain); err != nil {
		t.Fatal(err)
	}
	feedRollupTraffic(t, s)
	s.FoldRollups(s.HighWater())
	return marshalRollups(t, s), s
}

func marshalRollups(t *testing.T, s *Store) []byte {
	t.Helper()
	b, err := json.Marshal(s.Rollups().Snapshot())
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func rawCount(s *Store) int {
	n := 0
	for _, dev := range s.Devices() {
		n += len(s.History(dev))
	}
	return n
}

func bucketCount(s *Store) uint64 {
	var n uint64
	for _, dev := range s.Rollups().Devices() {
		hourly, daily := s.Rollups().Series(dev)
		_ = daily // daily buckets re-summarize hourly ones; counting both would double
		for _, b := range hourly {
			n += b.Count
		}
	}
	return n
}

// assertSameWindows compares the two stores' full-history windowed
// aggregates — the read-path proof that folding changed where answers
// come from, not what they are.
func assertSameWindows(t *testing.T, got, want *Store, step time.Duration) {
	t.Helper()
	to := want.HighWater() + 1
	for _, dev := range []uint64{0xA1, 0xA2} {
		d := lpwan.EUIFromUint64(dev)
		gi, err := got.QueryEngine().Windows(d, 0, to, step)
		if err != nil {
			t.Fatal(err)
		}
		wi, err := want.QueryEngine().Windows(d, 0, to, step)
		if err != nil {
			t.Fatal(err)
		}
		for wi.Next() {
			if !gi.Next() {
				t.Fatalf("dev %x: ran out of windows", dev)
			}
			if g, w := gi.Window(), wi.Window(); g != w {
				t.Fatalf("dev %x window at %v: got %+v want %+v", dev, w.Start, g, w)
			}
		}
		if gi.Next() {
			t.Fatalf("dev %x: extra windows", dev)
		}
		gi.Close()
		wi.Close()
	}
}

func TestRollupFoldDrainsAndAnswersIdentically(t *testing.T) {
	const retain = 24 * time.Hour

	// plain keeps everything raw: the oracle.
	plain := NewStore(StaticKeys(master))
	total := feedRollupTraffic(t, plain)

	s := NewStore(StaticKeys(master))
	if err := s.EnableRollups(rollup.Config{}, retain); err != nil {
		t.Fatal(err)
	}
	feedRollupTraffic(t, s)
	if n := s.FoldRollups(s.HighWater()); n == 0 {
		t.Fatal("fold summarized nothing")
	}
	r := s.Rollups()
	if r.StaleDrops() != 0 {
		t.Fatalf("fold dropped %d points as stale", r.StaleDrops())
	}
	wm := r.FoldedBefore()
	if wm <= 0 || wm > s.HighWater()-retain {
		t.Fatalf("watermark = %v (high water %v)", wm, s.HighWater())
	}

	// Conservation: every accepted point is either a raw survivor or
	// summarized in exactly one hourly bucket.
	raw := rawCount(s)
	if got := bucketCount(s) + uint64(raw); got != uint64(total) {
		t.Fatalf("buckets+raw = %d, fed %d", got, total)
	}
	// And the raw survivors are exactly the points above the watermark.
	for _, dev := range s.Devices() {
		for _, rd := range s.History(dev) {
			if rd.At < wm {
				t.Fatalf("raw point at %v survived below watermark %v", rd.At, wm)
			}
		}
	}

	assertSameWindows(t, s, plain, 6*time.Hour)

	// A second fold with an unchanged clock is a no-op.
	if n := s.FoldRollups(s.HighWater()); n != 0 {
		t.Fatalf("idempotent refold summarized %d points", n)
	}
}

func TestRollupSealedRegionRefusesIngest(t *testing.T) {
	s := NewStore(StaticKeys(master))
	if err := s.EnableRollups(rollup.Config{}, 24*time.Hour); err != nil {
		t.Fatal(err)
	}
	feedRollupTraffic(t, s)
	s.FoldRollups(s.HighWater())
	wm := s.Rollups().FoldedBefore()

	// A brand-new sequence number with an arrival inside the sealed
	// region is permanently refused — the buckets there are immutable.
	err := s.Ingest(wm-time.Hour, sealed(t, 0xA1, 9999, 1))
	if !errors.Is(err, ErrSealed) {
		t.Fatalf("sealed-region ingest err = %v", err)
	}
	if st := s.Stats(); st.Stale != 1 {
		t.Fatalf("stale count = %d", st.Stale)
	}
	// The same packet at a fresh arrival time is fine.
	if err := s.Ingest(s.HighWater()+time.Minute, sealed(t, 0xA1, 9999, 1)); err != nil {
		t.Fatal(err)
	}
}

func TestRollupSnapshotRoundTripAndGuardSeeding(t *testing.T) {
	const retain = 24 * time.Hour
	want, s := controlRollupState(t, retain)

	var buf bytes.Buffer
	if err := s.WriteSnapshot(&buf); err != nil {
		t.Fatal(err)
	}
	restored := NewStore(StaticKeys(master))
	if err := restored.EnableRollups(rollup.Config{}, retain); err != nil {
		t.Fatal(err)
	}
	if err := restored.ReadSnapshot(&buf); err != nil {
		t.Fatal(err)
	}
	if got := marshalRollups(t, restored); !bytes.Equal(got, want) {
		t.Fatalf("restored bucket state differs:\n got %s\nwant %s", got, want)
	}
	assertSameWindows(t, restored, s, 6*time.Hour)

	// Replay protection must survive even though the folded points' raw
	// copies (and their guard history) are gone: the guard is re-seeded
	// from the buckets' MaxSeq, so replaying the newest folded packet is
	// rejected...
	maxSeq := restored.Rollups().MaxSeq(lpwan.EUIFromUint64(0xA1))
	if maxSeq == 0 {
		t.Fatal("no folded MaxSeq to test with")
	}
	if err := restored.Ingest(restored.HighWater()+time.Minute, sealed(t, 0xA1, maxSeq, 3)); err == nil {
		t.Fatal("replay of folded packet admitted after restore")
	}
	// ...while genuinely new sequence numbers flow.
	if err := restored.Ingest(restored.HighWater()+time.Minute, sealed(t, 0xA1, maxSeq+1000, 3)); err != nil {
		t.Fatalf("fresh packet refused after restore: %v", err)
	}
}

func TestRollupSnapshotGeometryGuards(t *testing.T) {
	_, s := controlRollupState(t, 24*time.Hour)
	var buf bytes.Buffer
	if err := s.WriteSnapshot(&buf); err != nil {
		t.Fatal(err)
	}
	snap := buf.Bytes()

	// A snapshot carrying buckets refuses to load into a store without a
	// rollup engine: silently dropping summarized history would lose it.
	bare := NewStore(StaticKeys(master))
	if err := bare.ReadSnapshot(bytes.NewReader(snap)); err == nil {
		t.Fatal("rollup snapshot loaded into rollup-less store")
	}

	// And refuses a different tier geometry: buckets cannot be re-cut.
	wrong := NewStore(StaticKeys(master))
	if err := wrong.EnableRollups(rollup.Config{Hourly: 2 * time.Hour, Daily: 48 * time.Hour}, 24*time.Hour); err != nil {
		t.Fatal(err)
	}
	if err := wrong.ReadSnapshot(bytes.NewReader(snap)); err == nil {
		t.Fatal("rollup snapshot loaded into mismatched geometry")
	}
}

// TestRollupCrashSafety kills a durable endpoint at each interruption
// point of the fold/checkpoint protocol — fold done but nothing saved;
// snapshot saved but WAL not truncated; clean checkpoint — and asserts
// every reboot converges on byte-identical bucket state with no point
// lost or double-counted. "Kill" is the WAL suite's idiom: the store is
// abandoned without close, exactly as a power cut leaves it (per-append
// fsync makes the in-process abandonment equivalent to SIGKILL for
// what's on disk).
func TestRollupCrashSafety(t *testing.T) {
	const retain = 24 * time.Hour
	want, control := controlRollupState(t, retain)
	total := rawCount(control) + int(bucketCount(control))

	scenarios := []struct {
		name  string
		crash func(t *testing.T, s *Store, snap string)
	}{
		{
			// Crash after the in-memory fold, before any of it is saved:
			// the reboot sees no snapshot, replays the full WAL, and must
			// re-fold to the same bytes.
			name: "after-fold-before-save",
			crash: func(t *testing.T, s *Store, snap string) {
				s.FoldRollups(s.HighWater())
			},
		},
		{
			// Crash after the snapshot rename, before WAL truncation: the
			// WAL still holds every folded record, and replay must skip
			// them via the restored watermark instead of double-counting.
			name: "after-save-before-truncate",
			crash: func(t *testing.T, s *Store, snap string) {
				s.FoldRollups(s.HighWater())
				if err := s.SaveFile(snap); err != nil {
					t.Fatal(err)
				}
			},
		},
		{
			// The clean path: full checkpoint (fold, save, truncate).
			name: "clean-checkpoint",
			crash: func(t *testing.T, s *Store, snap string) {
				if err := s.CheckpointAt(snap, s.HighWater()); err != nil {
					t.Fatal(err)
				}
			},
		},
	}

	for _, sc := range scenarios {
		t.Run(sc.name, func(t *testing.T) {
			dir := t.TempDir()
			snap := filepath.Join(dir, "snapshot.json")
			walDir := filepath.Join(dir, "wal")
			boot := func() *Store {
				t.Helper()
				db, err := tsdb.Open(tsdb.Options{Dir: walDir, Shards: 4, Sync: tsdb.SyncAlways})
				if err != nil {
					t.Fatal(err)
				}
				s := NewStoreWithDB(StaticKeys(master), db)
				if err := s.EnableRollups(rollup.Config{}, retain); err != nil {
					t.Fatal(err)
				}
				if err := s.LoadFile(snap); err != nil {
					t.Fatal(err)
				}
				if _, err := s.ReplayWAL(); err != nil {
					t.Fatal(err)
				}
				return s
			}

			s1 := boot()
			feedRollupTraffic(t, s1)
			sc.crash(t, s1, snap)
			// s1 abandoned here: no Close, no final checkpoint.

			s2 := boot()
			defer s2.Close()
			// The reboot may still be pre-fold (scenario 1); fold with the
			// same data clock to reach steady state. Deterministic folding
			// makes this converge on the control's exact bytes.
			s2.FoldRollups(s2.HighWater())
			if got := marshalRollups(t, s2); !bytes.Equal(got, want) {
				t.Fatalf("bucket state diverged after crash:\n got %s\nwant %s", got, want)
			}
			if r := s2.Rollups(); r.StaleDrops() != 0 {
				t.Fatalf("refold dropped %d points", r.StaleDrops())
			}
			if got := rawCount(s2) + int(bucketCount(s2)); got != total {
				t.Fatalf("conservation: buckets+raw = %d, want %d", got, total)
			}
			assertSameWindows(t, s2, control, 6*time.Hour)

			// The reboot still refuses sealed-region arrivals and replays
			// of folded sequence numbers, and accepts fresh traffic.
			wm := s2.Rollups().FoldedBefore()
			if err := s2.Ingest(wm-time.Minute, sealed(t, 0xA1, 50000, 1)); !errors.Is(err, ErrSealed) {
				t.Fatalf("sealed ingest after reboot: %v", err)
			}
			maxSeq := s2.Rollups().MaxSeq(lpwan.EUIFromUint64(0xA2))
			if err := s2.Ingest(s2.HighWater()+time.Minute, sealed(t, 0xA2, maxSeq, 1)); err == nil {
				t.Fatal("folded-seq replay admitted after reboot")
			}
			if err := s2.Ingest(s2.HighWater()+time.Minute, sealed(t, 0xA2, maxSeq+1000, 1)); err != nil {
				t.Fatalf("fresh ingest after reboot: %v", err)
			}
		})
	}
}

// TestRollupCheckpointCadence runs three fold/checkpoint/reboot cycles
// with traffic between them — the steady-state loop a real endpoint
// lives in — and checks the tiers stay consistent with a never-crashed
// oracle throughout.
func TestRollupCheckpointCadence(t *testing.T) {
	const retain = 24 * time.Hour
	dir := t.TempDir()
	snap := filepath.Join(dir, "snapshot.json")
	walDir := filepath.Join(dir, "wal")
	boot := func() *Store {
		t.Helper()
		db, err := tsdb.Open(tsdb.Options{Dir: walDir, Shards: 4, Sync: tsdb.SyncAlways})
		if err != nil {
			t.Fatal(err)
		}
		s := NewStoreWithDB(StaticKeys(master), db)
		if err := s.EnableRollups(rollup.Config{}, retain); err != nil {
			t.Fatal(err)
		}
		if err := s.LoadFile(snap); err != nil {
			t.Fatal(err)
		}
		if _, err := s.ReplayWAL(); err != nil {
			t.Fatal(err)
		}
		return s
	}
	oracle := NewStore(StaticKeys(master))
	if err := oracle.EnableRollups(rollup.Config{}, retain); err != nil {
		t.Fatal(err)
	}

	feed := func(s *Store, day int) {
		t.Helper()
		base := time.Duration(day) * 24 * time.Hour
		for _, dev := range []uint64{0xB1, 0xB2} {
			for i := 0; i < 24; i++ {
				seq := uint32(day*24 + i + 1)
				at := base + time.Duration(i)*time.Hour + time.Duration(dev%11)*time.Minute
				if err := s.Ingest(at, sealed(t, dev, seq, float32(seq%7))); err != nil {
					t.Fatalf("day %d dev %x: %v", day, dev, err)
				}
			}
		}
	}

	s := boot()
	for day := 0; day < 6; day++ {
		feed(s, day)
		feed(oracle, day)
		if err := s.CheckpointAt(snap, s.HighWater()); err != nil {
			t.Fatal(err)
		}
		oracle.FoldRollups(oracle.HighWater())
		// Reboot every other day.
		if day%2 == 1 {
			s = boot()
		}
		if got, want := marshalRollups(t, s), marshalRollups(t, oracle); !bytes.Equal(got, want) {
			t.Fatalf("day %d: tiers diverged from oracle\n got %s\nwant %s", day, got, want)
		}
	}
	assertSameWindows(t, s, oracle, 6*time.Hour)
	if s.Rollups().FoldedBefore() == 0 {
		t.Fatal("cadence never advanced the watermark")
	}
}
