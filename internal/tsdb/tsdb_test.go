package tsdb

import (
	"cmp"
	"os"
	"path/filepath"
	"slices"
	"testing"
	"time"

	"centuryscale/internal/lpwan"
)

func pt(dev uint64, seq uint32, at time.Duration) Point {
	return Point{
		Device: lpwan.EUIFromUint64(dev),
		At:     at,
		Seq:    seq,
		Sensor: 2,
		Value:  float32(seq) * 1.5,
		Uptime: seq * 60,
	}
}

func mustOpen(t *testing.T, opts Options) *DB {
	t.Helper()
	db, err := Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { db.Close() })
	return db
}

// storedDevices lists the devices with points in db's memtable, sorted
// by address.
func storedDevices(db *DB) []lpwan.EUI64 {
	var out []lpwan.EUI64
	for i := 0; i < db.Shards(); i++ {
		for dev := range db.SnapshotShard(i) {
			out = append(out, dev)
		}
	}
	slices.SortFunc(out, func(a, b lpwan.EUI64) int { return cmp.Compare(a.Uint64(), b.Uint64()) })
	return out
}

func TestMemoryAppendHistoryDevices(t *testing.T) {
	db := mustOpen(t, Options{Shards: 4})
	for dev := uint64(1); dev <= 5; dev++ {
		for seq := uint32(1); seq <= 3; seq++ {
			if err := db.Append(pt(dev, seq, time.Duration(seq)*time.Hour)); err != nil {
				t.Fatal(err)
			}
		}
	}
	if devs := storedDevices(db); len(devs) != 5 || devs[0].Uint64() != 1 || devs[4].Uint64() != 5 {
		t.Fatalf("devices = %v", devs)
	}
	hist := db.History(lpwan.EUIFromUint64(3))
	if len(hist) != 3 {
		t.Fatalf("history = %d", len(hist))
	}
	for i, p := range hist {
		if p.Seq != uint32(i+1) {
			t.Fatalf("history out of order: %+v", hist)
		}
	}
	if st := db.Stats(); st.Points != 15 || st.Appended != 15 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestRangeSlice(t *testing.T) {
	db := mustOpen(t, Options{Shards: 2})
	dev := uint64(7)
	for seq := uint32(1); seq <= 10; seq++ {
		if err := db.Append(pt(dev, seq, time.Duration(seq)*time.Hour)); err != nil {
			t.Fatal(err)
		}
	}
	pts, release := db.RangeSlice(lpwan.EUIFromUint64(dev), 3*time.Hour, 7*time.Hour)
	if len(pts) != 4 {
		t.Fatalf("range holds %d points, want 4", len(pts))
	}
	for i, p := range pts {
		if want := uint32(3 + i); p.Seq != want {
			t.Fatalf("range seq = %d, want %d", p.Seq, want)
		}
	}
	release()
	release() // idempotent
	// The slice is a snapshot: appends after the call are invisible.
	pts, release = db.RangeSlice(lpwan.EUIFromUint64(dev), 0, time.Duration(1<<62))
	defer release()
	if err := db.Append(pt(dev, 11, 11*time.Hour)); err != nil {
		t.Fatal(err)
	}
	if len(pts) != 10 || pts[9].Seq != 10 {
		t.Fatalf("range saw %d points, last seq %d", len(pts), pts[len(pts)-1].Seq)
	}
}

func TestShardIndexSpreads(t *testing.T) {
	const shards = 16
	hit := make([]int, shards)
	// Sequential EUI-64s — exactly the pathological input for a naive
	// modulo shard map.
	for dev := uint64(1); dev <= 1000; dev++ {
		hit[ShardIndex(lpwan.EUIFromUint64(dev), shards)]++
	}
	for i, n := range hit {
		if n == 0 {
			t.Fatalf("shard %d never hit: %v", i, hit)
		}
		if n > 1000/shards*3 {
			t.Fatalf("shard %d overloaded (%d of 1000): %v", i, n, hit)
		}
	}
	// Same device always lands on the same shard.
	for dev := uint64(1); dev <= 10; dev++ {
		a := ShardIndex(lpwan.EUIFromUint64(dev), shards)
		b := ShardIndex(lpwan.EUIFromUint64(dev), shards)
		if a != b {
			t.Fatal("shard index not deterministic")
		}
	}
}

func TestWALPersistAndReplay(t *testing.T) {
	dir := t.TempDir()
	db := mustOpen(t, Options{Dir: dir, Shards: 4, Sync: SyncNever})
	const devs, seqs = 6, 20
	for dev := uint64(1); dev <= devs; dev++ {
		for seq := uint32(1); seq <= seqs; seq++ {
			if err := db.Append(pt(dev, seq, time.Duration(seq)*time.Minute)); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}

	re := mustOpen(t, Options{Dir: dir, Shards: 4, Sync: SyncNever})
	st, err := re.Replay(nil)
	if err != nil {
		t.Fatal(err)
	}
	if st.Records != devs*seqs || st.Kept != devs*seqs || st.Corruptions != 0 {
		t.Fatalf("replay stats = %+v", st)
	}
	for dev := uint64(1); dev <= devs; dev++ {
		hist := re.History(lpwan.EUIFromUint64(dev))
		if len(hist) != seqs {
			t.Fatalf("device %d: %d points after replay", dev, len(hist))
		}
		for i, p := range hist {
			if want := pt(dev, uint32(i+1), time.Duration(i+1)*time.Minute); p != want {
				t.Fatalf("replayed point %+v, want %+v", p, want)
			}
		}
	}
}

func TestWALSegmentRotation(t *testing.T) {
	dir := t.TempDir()
	// Tiny segments force rotation every few records.
	db := mustOpen(t, Options{Dir: dir, Shards: 1, Sync: SyncNever, SegmentBytes: 128})
	const n = 50
	for seq := uint32(1); seq <= n; seq++ {
		if err := db.Append(pt(1, seq, time.Duration(seq))); err != nil {
			t.Fatal(err)
		}
	}
	if st := db.Stats(); st.WALSegments < 5 {
		t.Fatalf("expected many segments, got %+v", st)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	re := mustOpen(t, Options{Dir: dir, Shards: 1, Sync: SyncNever, SegmentBytes: 128})
	st, err := re.Replay(nil)
	if err != nil {
		t.Fatal(err)
	}
	if st.Records != n {
		t.Fatalf("replayed %d of %d across segments", st.Records, n)
	}
}

func TestReplayFilterSkips(t *testing.T) {
	dir := t.TempDir()
	db := mustOpen(t, Options{Dir: dir, Shards: 2, Sync: SyncNever})
	for seq := uint32(1); seq <= 10; seq++ {
		if err := db.Append(pt(1, seq, time.Duration(seq))); err != nil {
			t.Fatal(err)
		}
	}
	db.Close()
	re := mustOpen(t, Options{Dir: dir, Shards: 2, Sync: SyncNever})
	st, err := re.Replay(func(p Point) bool { return p.Seq > 5 })
	if err != nil {
		t.Fatal(err)
	}
	if st.Records != 10 || st.Kept != 5 {
		t.Fatalf("replay stats = %+v", st)
	}
	if got := len(re.History(lpwan.EUIFromUint64(1))); got != 5 {
		t.Fatalf("kept %d points", got)
	}
}

func TestCheckpointTruncatesSegments(t *testing.T) {
	dir := t.TempDir()
	db := mustOpen(t, Options{Dir: dir, Shards: 2, Sync: SyncNever, SegmentBytes: 128})
	for seq := uint32(1); seq <= 40; seq++ {
		if err := db.Append(pt(1, seq, time.Duration(seq))); err != nil {
			t.Fatal(err)
		}
		if err := db.Append(pt(2, seq, time.Duration(seq))); err != nil {
			t.Fatal(err)
		}
	}
	before := db.Stats().WALSegments
	saved := false
	if err := db.Checkpoint(func() error { saved = true; return nil }); err != nil {
		t.Fatal(err)
	}
	if !saved {
		t.Fatal("checkpoint never called save")
	}
	after := db.Stats().WALSegments
	if after >= before {
		t.Fatalf("checkpoint did not truncate: %d -> %d segments", before, after)
	}
	// Only the fresh active segment remains, whatever the shard count.
	if after != 1 {
		t.Fatalf("want 1 active segment, got %d", after)
	}

	// Records appended after the checkpoint replay; records before it
	// (covered by the "snapshot") are gone from the WAL.
	if err := db.Append(pt(1, 41, 41)); err != nil {
		t.Fatal(err)
	}
	db.Close()
	re := mustOpen(t, Options{Dir: dir, Shards: 2, Sync: SyncNever})
	st, err := re.Replay(nil)
	if err != nil {
		t.Fatal(err)
	}
	if st.Records != 1 || st.Kept != 1 {
		t.Fatalf("post-checkpoint replay = %+v", st)
	}
}

func TestCheckpointSaveFailureKeepsSegments(t *testing.T) {
	dir := t.TempDir()
	db := mustOpen(t, Options{Dir: dir, Shards: 1, Sync: SyncNever})
	for seq := uint32(1); seq <= 10; seq++ {
		if err := db.Append(pt(1, seq, time.Duration(seq))); err != nil {
			t.Fatal(err)
		}
	}
	wantErr := os.ErrPermission
	if err := db.Checkpoint(func() error { return wantErr }); err != wantErr {
		t.Fatalf("checkpoint error = %v", err)
	}
	db.Close()
	// Nothing was truncated: a failed snapshot must not cost WAL data.
	re := mustOpen(t, Options{Dir: dir, Shards: 1, Sync: SyncNever})
	st, err := re.Replay(nil)
	if err != nil {
		t.Fatal(err)
	}
	if st.Records != 10 {
		t.Fatalf("replayed %d after failed checkpoint", st.Records)
	}
}

func TestResetAndLoadBypassWAL(t *testing.T) {
	dir := t.TempDir()
	db := mustOpen(t, Options{Dir: dir, Shards: 2, Sync: SyncNever})
	db.Load(pt(1, 1, time.Minute))
	if got := len(db.History(lpwan.EUIFromUint64(1))); got != 1 {
		t.Fatalf("loaded %d", got)
	}
	db.Reset()
	if got := len(db.History(lpwan.EUIFromUint64(1))); got != 0 {
		t.Fatalf("reset left %d", got)
	}
	db.Close()
	// Load wrote nothing durable.
	re := mustOpen(t, Options{Dir: dir, Shards: 2, Sync: SyncNever})
	st, err := re.Replay(nil)
	if err != nil {
		t.Fatal(err)
	}
	if st.Records != 0 {
		t.Fatalf("Load leaked %d records into the WAL", st.Records)
	}
}

func TestShardCountChangeAcrossReopen(t *testing.T) {
	dir := t.TempDir()
	db := mustOpen(t, Options{Dir: dir, Shards: 8, Sync: SyncNever})
	for dev := uint64(1); dev <= 20; dev++ {
		if err := db.Append(pt(dev, 1, time.Minute)); err != nil {
			t.Fatal(err)
		}
	}
	db.Close()
	// Re-shard 8 -> 3: replay must find every reading regardless of
	// which on-disk shard directory it lives in.
	re := mustOpen(t, Options{Dir: dir, Shards: 3, Sync: SyncNever})
	st, err := re.Replay(nil)
	if err != nil {
		t.Fatal(err)
	}
	if st.Kept != 20 {
		t.Fatalf("kept %d of 20 after re-sharding", st.Kept)
	}
	if got := len(storedDevices(re)); got != 20 {
		t.Fatalf("devices = %d", got)
	}
	// Kept and Devices are insensitive to which shard a point landed in;
	// History routes through the current shard map and is not — every
	// replayed point must be findable where ShardIndex says it lives.
	for dev := uint64(1); dev <= 20; dev++ {
		if h := re.History(lpwan.EUIFromUint64(dev)); len(h) != 1 || h[0].Seq != 1 {
			t.Fatalf("device %d history = %+v after 8->3 re-shard", dev, h)
		}
	}
	re.Close()
	// And back up, 3 -> 8: an increase leaves no orphan directories, so
	// it depends entirely on replay re-hashing records out of the
	// surviving shard directories into their new homes.
	up := mustOpen(t, Options{Dir: dir, Shards: 8, Sync: SyncNever})
	if _, err := up.Replay(nil); err != nil {
		t.Fatal(err)
	}
	for dev := uint64(1); dev <= 20; dev++ {
		if h := up.History(lpwan.EUIFromUint64(dev)); len(h) != 1 || h[0].Seq != 1 {
			t.Fatalf("device %d history = %+v after 3->8 re-shard", dev, h)
		}
	}
}

func TestParseSyncPolicy(t *testing.T) {
	for s, want := range map[string]SyncPolicy{"always": SyncAlways, "Interval": SyncInterval, "never": SyncNever} {
		got, err := ParseSyncPolicy(s)
		if err != nil || got != want {
			t.Fatalf("ParseSyncPolicy(%q) = %v, %v", s, got, err)
		}
	}
	if _, err := ParseSyncPolicy("sometimes"); err == nil {
		t.Fatal("accepted bogus policy")
	}
}

func TestSyncIntervalFlushes(t *testing.T) {
	dir := t.TempDir()
	db := mustOpen(t, Options{Dir: dir, Shards: 1, Sync: SyncInterval, SyncEvery: 5 * time.Millisecond})
	if err := db.Append(pt(1, 1, time.Minute)); err != nil {
		t.Fatal(err)
	}
	time.Sleep(30 * time.Millisecond) // let the ticker fsync
	// The bytes are visible on disk even before Close.
	entries, err := os.ReadDir(filepath.Join(dir, walDir))
	if err != nil {
		t.Fatal(err)
	}
	var total int64
	for _, e := range entries {
		if info, err := e.Info(); err == nil {
			total += info.Size()
		}
	}
	if total == 0 {
		t.Fatal("no WAL bytes on disk")
	}
}
