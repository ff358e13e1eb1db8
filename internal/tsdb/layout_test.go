package tsdb

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"testing"
	"time"

	"centuryscale/internal/lpwan"
)

// writeLegacyShard writes pts as one segment of the per-shard layout this
// engine used before the shared log: dir/shard-NNN/wal-00000001.log.
func writeLegacyShard(t *testing.T, dir string, shard int, pts []Point) string {
	t.Helper()
	shardDir := filepath.Join(dir, fmt.Sprintf("shard-%03d", shard))
	if err := os.MkdirAll(shardDir, 0o755); err != nil {
		t.Fatal(err)
	}
	var frames []byte
	for _, p := range pts {
		frames = AppendRecord(frames, p)
	}
	path := filepath.Join(shardDir, segName(1))
	if err := os.WriteFile(path, frames, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestLegacyShardLayoutReplaysAndRetires is C5 (DESIGN.md S40): a data
// directory written in the per-shard layout — by any shard count, with a
// crash-torn tail — replays completely through the current shard map, and
// its directories are gone after the next checkpoint.
func TestLegacyShardLayoutReplaysAndRetires(t *testing.T) {
	dir := t.TempDir()
	const shards = 4
	// Where a device's records lie says nothing about where it lives now:
	// shard-001 is below the current count, shard-009 at/above it, and
	// neither is these devices' home under ShardIndex(·, 4).
	series := func(dev uint64, n uint32) []Point {
		pts := make([]Point, n)
		for i := range pts {
			pts[i] = pt(dev, uint32(i+1), time.Duration(i+1)*time.Minute)
		}
		return pts
	}
	writeLegacyShard(t, dir, 1, append(series(11, 6), series(12, 3)...))
	torn := writeLegacyShard(t, dir, 9, series(13, 5))
	info, err := os.Stat(torn)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(torn, info.Size()-7); err != nil { // crash mid-record
		t.Fatal(err)
	}
	// Something that is not a shard directory must survive untouched.
	keep := filepath.Join(dir, "shard-notes.txt")
	if err := os.WriteFile(keep, []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}

	db := mustOpen(t, Options{Dir: dir, Shards: shards, Sync: SyncNever})
	st, err := db.Replay(nil)
	if err != nil {
		t.Fatal(err)
	}
	if st.Records != 6+3+4 || st.Kept != st.Records || st.Corruptions != 1 {
		t.Fatalf("replay stats = %+v, want 13 records and the one torn tail", st)
	}
	for dev, want := range map[uint64]int{11: 6, 12: 3, 13: 4} {
		hist := db.History(lpwan.EUIFromUint64(dev))
		if len(hist) != want {
			t.Fatalf("device %d: %d points through the current shard map, want %d", dev, len(hist), want)
		}
		for i, p := range hist {
			if p.Seq != uint32(i+1) {
				t.Fatalf("device %d out of order: %+v", dev, hist)
			}
		}
	}
	// New appends go to the shared log only, and Stats reads only it.
	if err := db.Append(pt(11, 7, 7*time.Minute)); err != nil {
		t.Fatal(err)
	}
	if ws := db.Stats(); ws.WALSegments != 1 || ws.WALBytes != frameHeader+pointPayload {
		t.Fatalf("stats read %d segments, %d bytes; want the shared log's 1 segment, one record", ws.WALSegments, ws.WALBytes)
	}

	if err := db.Checkpoint(func() error { return nil }); err != nil {
		t.Fatal(err)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, e := range entries {
		names = append(names, e.Name())
	}
	if fmt.Sprint(names) != "[shard-notes.txt wal]" {
		t.Fatalf("after checkpoint the data dir holds %v, want only the shared log (and the bystander file)", names)
	}
}

// TestReplayHoldsOneBatch pins the Replay bugfix: records go from the
// segment being read through keep in bounded batches, so what a boot
// allocates does not grow with the log (it used to collect a whole
// directory's records — with one shared log, the entire WAL — before
// filtering the first).
func TestReplayHoldsOneBatch(t *testing.T) {
	dir := t.TempDir()
	db := mustOpen(t, Options{Dir: dir, Shards: 4, Sync: SyncNever})
	const n = 8 * replayBatch
	pts := make([]Point, 0, 512)
	for seq := uint32(1); seq <= n; {
		pts = pts[:0]
		for ; len(pts) < cap(pts) && seq <= n; seq++ {
			pts = append(pts, pt(uint64(seq%64), seq, time.Duration(seq)))
		}
		if err := db.AppendBatch(pts); err != nil {
			t.Fatal(err)
		}
	}
	db.Close()

	re := mustOpen(t, Options{Dir: dir, Shards: 4, Sync: SyncNever})
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	lastSeq := make(map[lpwan.EUI64]uint32)
	st, err := re.Replay(func(p Point) bool {
		if p.Seq <= lastSeq[p.Device] {
			t.Errorf("device %v: seq %d reached keep after seq %d", p.Device, p.Seq, lastSeq[p.Device])
		}
		lastSeq[p.Device] = p.Seq
		return false
	})
	runtime.ReadMemStats(&after)
	if err != nil || st.Records != n || st.Kept != 0 {
		t.Fatalf("replay = %+v, %v", st, err)
	}
	// Buffering the log costs at least a Point (40 bytes) per record; one
	// batch, grown by doubling, costs about two batches' worth in all.
	if got := after.TotalAlloc - before.TotalAlloc; got > n*40/2 {
		t.Fatalf("replaying %d records allocated %d bytes: more than the batch is being held", n, got)
	}
}
