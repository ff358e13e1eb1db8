package tsdb

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
	"time"

	"centuryscale/internal/lpwan"
)

// writeWAL populates a WAL with n records and closes it, returning the
// path of the one segment file holding them.
func writeWAL(t *testing.T, dir string, n uint32) string {
	t.Helper()
	db, err := Open(Options{Dir: dir, Shards: 1, Sync: SyncNever})
	if err != nil {
		t.Fatal(err)
	}
	for seq := uint32(1); seq <= n; seq++ {
		if err := db.Append(pt(1, seq, time.Duration(seq)*time.Minute)); err != nil {
			t.Fatal(err)
		}
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	logDir := filepath.Join(dir, walDir)
	segs, err := listSegments(logDir)
	if err != nil {
		t.Fatal(err)
	}
	var paths []string
	for _, idx := range segs {
		p := filepath.Join(logDir, segName(idx))
		if info, err := os.Stat(p); err == nil && info.Size() > 0 {
			paths = append(paths, p)
		}
	}
	if len(paths) != 1 {
		t.Fatalf("expected one non-empty segment, found %d", len(paths))
	}
	return paths[0]
}

func replayCount(t *testing.T, dir string) (ReplayStats, *DB) {
	t.Helper()
	db, err := Open(Options{Dir: dir, Shards: 1, Sync: SyncNever})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { db.Close() })
	st, err := db.Replay(nil)
	if err != nil {
		t.Fatal(err)
	}
	return st, db
}

// TestRecoveryTornFinalRecord is the crash the WAL exists for: the
// process died mid-append, leaving a half-written final record. Reopen
// must recover every record before the tear, count the corruption, and
// carry on — and must trim the torn tail so the next boot is clean.
func TestRecoveryTornFinalRecord(t *testing.T) {
	const n = 25
	dir := t.TempDir()
	seg := writeWAL(t, dir, n)

	info, err := os.Stat(seg)
	if err != nil {
		t.Fatal(err)
	}
	// Chop mid-record: drop the final record's last 10 bytes.
	if err := os.Truncate(seg, info.Size()-10); err != nil {
		t.Fatal(err)
	}

	var logged []string
	db, err := Open(Options{Dir: dir, Shards: 1, Sync: SyncNever,
		Logf: func(f string, a ...any) { logged = append(logged, fmt.Sprintf(f, a...)) }})
	if err != nil {
		t.Fatal(err)
	}
	st, err := db.Replay(nil)
	if err != nil {
		t.Fatalf("replay must tolerate a torn tail, got %v", err)
	}
	if st.Records != n-1 || st.Corruptions != 1 {
		t.Fatalf("replay stats = %+v, want %d records, 1 corruption", st, n-1)
	}
	if len(db.History(lpwan.EUIFromUint64(1))) != n-1 {
		t.Fatal("recovered history wrong length")
	}
	if len(logged) == 0 || !strings.Contains(logged[0], "recovering") {
		t.Fatalf("corruption was not logged: %q", logged)
	}

	// The torn tail was trimmed: a second boot replays clean, no
	// corruption re-counted, and appends continue past the tear.
	if err := db.Append(pt(1, n+1, (n+1)*time.Minute)); err != nil {
		t.Fatal(err)
	}
	db.Close()
	st2, re := replayCount(t, dir)
	if st2.Corruptions != 0 {
		t.Fatalf("second boot still sees corruption: %+v", st2)
	}
	if st2.Records != n {
		t.Fatalf("second boot replayed %d, want %d", st2.Records, n)
	}
	hist := re.History(lpwan.EUIFromUint64(1))
	if hist[len(hist)-1].Seq != n+1 {
		t.Fatalf("post-recovery append lost: %+v", hist[len(hist)-1])
	}
}

// TestRecoveryFlippedCRCByte covers silent corruption (a flipped bit on
// disk): replay recovers to the last intact record before the damage,
// counts it, and does not fail the boot.
func TestRecoveryFlippedCRCByte(t *testing.T) {
	const n = 25
	dir := t.TempDir()
	seg := writeWAL(t, dir, n)

	data, err := os.ReadFile(seg)
	if err != nil {
		t.Fatal(err)
	}
	// Flip a byte inside record 11's payload (records are fixed-size
	// frames here, so offsets are arithmetic).
	frame := int64(frameHeader + pointPayload)
	off := 10*frame + frameHeader + 3
	data[off] ^= 0xFF
	if err := os.WriteFile(seg, data, 0o644); err != nil {
		t.Fatal(err)
	}

	st, db := replayCount(t, dir)
	if st.Corruptions != 1 {
		t.Fatalf("corruption not counted: %+v", st)
	}
	if st.Records != 10 {
		t.Fatalf("recovered %d records, want the 10 before the damage", st.Records)
	}
	hist := db.History(lpwan.EUIFromUint64(1))
	if len(hist) != 10 || hist[9].Seq != 10 {
		t.Fatalf("recovered history = %d records", len(hist))
	}
}

// TestRecoveryGarbageLengthPrefix: a corrupted length field must neither
// panic nor drive a giant allocation; recovery stops at the last intact
// record.
func TestRecoveryGarbageLengthPrefix(t *testing.T) {
	const n = 5
	dir := t.TempDir()
	seg := writeWAL(t, dir, n)

	data, err := os.ReadFile(seg)
	if err != nil {
		t.Fatal(err)
	}
	frame := frameHeader + pointPayload
	// Overwrite record 4's length with 0xFFFFFFFF.
	copy(data[3*frame:], []byte{0xFF, 0xFF, 0xFF, 0xFF})
	if err := os.WriteFile(seg, data, 0o644); err != nil {
		t.Fatal(err)
	}

	st, _ := replayCount(t, dir)
	if st.Records != 3 || st.Corruptions != 1 {
		t.Fatalf("replay stats = %+v", st)
	}
}

// TestTornWriteTruncatedOnAppendError: a failed write leaves a torn
// frame mid-segment; the repair must truncate it away so every record
// acknowledged AFTER the transient error still replays (replay stops a
// segment at its first corrupt frame). The failed append's own record is
// not lost either: it stays in the log buffer and the next flush writes
// it, ahead of everything appended since.
func TestTornWriteTruncatedOnAppendError(t *testing.T) {
	dir := t.TempDir()
	db := mustOpen(t, Options{Dir: dir, Shards: 1, Sync: SyncNever})
	for seq := uint32(1); seq <= 5; seq++ {
		if err := db.Append(pt(1, seq, time.Duration(seq)*time.Minute)); err != nil {
			t.Fatal(err)
		}
	}
	// Three bytes of the next frame reach the file, then the write fails.
	injectFaults(db).fail("write", syscall.EIO, 1, 3)
	if err := db.Append(pt(1, 6, 6*time.Minute)); err == nil {
		t.Fatal("append over a failing write must not be acknowledged")
	}
	for seq := uint32(7); seq <= 10; seq++ {
		if err := db.Append(pt(1, seq, time.Duration(seq)*time.Minute)); err != nil {
			t.Fatal(err)
		}
	}
	db.Close()

	st, re := replayCount(t, dir)
	if st.Records != 10 || st.Corruptions != 0 {
		t.Fatalf("replay stats = %+v, want 10 records, 0 corruptions", st)
	}
	hist := re.History(lpwan.EUIFromUint64(1))
	for i, p := range hist {
		if p.Seq != uint32(i+1) {
			t.Fatalf("replayed order broken at %d: %+v", i, hist)
		}
	}
}

// TestTornWriteSealedWhenTruncateFails: when even the repairing truncate
// fails, the damaged segment must be abandoned and a fresh one started,
// so the tear costs nothing — records on both sides of it replay, the
// failed append's among them.
func TestTornWriteSealedWhenTruncateFails(t *testing.T) {
	dir := t.TempDir()
	db := mustOpen(t, Options{Dir: dir, Shards: 1, Sync: SyncNever})
	for seq := uint32(1); seq <= 5; seq++ {
		if err := db.Append(pt(1, seq, time.Duration(seq)*time.Minute)); err != nil {
			t.Fatal(err)
		}
	}
	fs := injectFaults(db)
	fs.fail("write", syscall.EIO, 1, 2)
	fs.fail("truncate", syscall.EIO, 1, 0)
	if err := db.Append(pt(1, 6, 6*time.Minute)); err == nil {
		t.Fatal("append over a failing write must not be acknowledged")
	}
	// Recovery moved to a fresh segment: appends are accepted again and
	// land past the abandoned tear.
	for seq := uint32(7); seq <= 9; seq++ {
		if err := db.Append(pt(1, seq, time.Duration(seq)*time.Minute)); err != nil {
			t.Fatal(err)
		}
	}
	db.Close()

	st, re := replayCount(t, dir)
	if st.Records != 9 || st.Corruptions != 1 {
		t.Fatalf("replay stats = %+v, want 9 records, 1 corruption", st)
	}
	hist := re.History(lpwan.EUIFromUint64(1))
	for i, p := range hist {
		if p.Seq != uint32(i+1) {
			t.Fatalf("replayed order broken at %d: %+v", i, hist)
		}
	}
	// The abandoned segment sits mid-list, not last: replay trimmed it all
	// the same, so the tear is counted once, not at every boot.
	re.Close()
	if st2, _ := replayCount(t, dir); st2.Records != 9 || st2.Corruptions != 0 {
		t.Fatalf("second boot stats = %+v, want 9 records, 0 corruptions", st2)
	}
}

// TestRecoveryCorruptionInEarlierSegment: damage in a sealed, non-final
// segment loses only that segment's tail; later segments still replay.
func TestRecoveryCorruptionInEarlierSegment(t *testing.T) {
	dir := t.TempDir()
	// Tiny segments: ~3 records each.
	db, err := Open(Options{Dir: dir, Shards: 1, Sync: SyncNever, SegmentBytes: 3 * (frameHeader + pointPayload)})
	if err != nil {
		t.Fatal(err)
	}
	const n = 12
	for seq := uint32(1); seq <= n; seq++ {
		if err := db.Append(pt(1, seq, time.Duration(seq)*time.Minute)); err != nil {
			t.Fatal(err)
		}
	}
	db.Close()

	logDir := filepath.Join(dir, walDir)
	segs, err := listSegments(logDir)
	if err != nil {
		t.Fatal(err)
	}
	if len(segs) < 3 {
		t.Fatalf("want >= 3 segments, got %d", len(segs))
	}
	// Corrupt the SECOND record of the first non-empty segment.
	first := filepath.Join(logDir, segName(segs[0]))
	data, err := os.ReadFile(first)
	if err != nil {
		t.Fatal(err)
	}
	frame := frameHeader + pointPayload
	data[frame+frameHeader+1] ^= 0x01
	if err := os.WriteFile(first, data, 0o644); err != nil {
		t.Fatal(err)
	}

	st, re := replayCount(t, dir)
	if st.Corruptions != 1 {
		t.Fatalf("stats = %+v", st)
	}
	// Lost: records 2,3 (rest of damaged segment). Kept: record 1 and
	// every record in the later segments.
	if st.Records != n-2 {
		t.Fatalf("replayed %d, want %d", st.Records, n-2)
	}
	hist := re.History(lpwan.EUIFromUint64(1))
	if hist[0].Seq != 1 || hist[1].Seq != 4 {
		t.Fatalf("unexpected survivors: %+v", hist[:2])
	}
}
