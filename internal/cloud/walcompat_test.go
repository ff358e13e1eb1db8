package cloud

import (
	"bytes"
	"encoding/binary"
	"os"
	"path/filepath"
	"slices"
	"testing"
	"time"

	"centuryscale/internal/tsdb"
)

// recordTypes lists the type byte of every WAL record framed in b.
func recordTypes(t *testing.T, b []byte) []byte {
	t.Helper()
	var types []byte
	for off := 0; off < len(b); {
		if off+9 > len(b) {
			t.Fatalf("torn frame at offset %d", off)
		}
		types = append(types, b[off+8])
		off += 8 + int(binary.BigEndian.Uint32(b[off:]))
	}
	return types
}

// TestOldWALReplaysForever is K4 for the log. testdata/wal-v1 holds the
// WAL segments a build from before arrival-run records wrote — point
// records only, from 24 frames of 32 packets over 48 devices and 40
// single packets — and export.json, the export that build made after
// replaying them. They must replay to the same bytes, every one of the
// 808 points decoded; and a log whose old segments are followed by a
// segment of arrival runs must replay to what the store held when it
// wrote them.
func TestOldWALReplaysForever(t *testing.T) {
	src := filepath.Join("testdata", "wal-v1")
	want, err := os.ReadFile(filepath.Join(src, "export.json"))
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	wal := filepath.Join(dir, "tsdb", "wal")
	if err := os.MkdirAll(wal, 0o755); err != nil {
		t.Fatal(err)
	}
	segs, err := filepath.Glob(filepath.Join(src, "wal", "*.log"))
	if err != nil || len(segs) != 4 {
		t.Fatalf("fixture segments %v, %v", segs, err)
	}
	for _, seg := range segs {
		b, err := os.ReadFile(seg)
		if err != nil {
			t.Fatal(err)
		}
		if types := recordTypes(t, b); slices.ContainsFunc(types, func(b byte) bool { return b != 0x01 }) {
			t.Fatalf("%s holds record types %x, want point records only", seg, types)
		}
		if err := os.WriteFile(filepath.Join(wal, filepath.Base(seg)), b, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	open := func() *Store {
		t.Helper()
		db, err := tsdb.Open(tsdb.Options{Dir: filepath.Join(dir, "tsdb"), Shards: 4, Sync: tsdb.SyncNever})
		if err != nil {
			t.Fatal(err)
		}
		return NewStoreWithDB(StaticKeys(master), db)
	}
	replay := func(s *Store, points uint64) {
		t.Helper()
		st, err := s.ReplayWAL()
		if err != nil || st.Records != points || st.Kept != points || st.Corruptions != 0 {
			t.Fatalf("replay = %+v, %v; want %d points kept", st, err, points)
		}
	}

	old := open()
	replay(old, 808)
	if got := exportOf(t, old); !bytes.Equal(got, want) {
		t.Fatal("the old WAL replays to an export other than the one its build made")
	}

	// Six more frames from the same devices, into a segment of its own.
	for f := 0; f < 6; f++ {
		var wires [][]byte
		for i := 0; i < 32; i++ {
			k := f*32 + i
			wires = append(wires, sealed(t, uint64(0xF100+k%48), uint32(100+f), float32(k)))
		}
		if res, err := old.IngestBatch(30*time.Hour+time.Duration(f)*time.Minute, frameOf(t, wires...)); err != nil || res.Accepted != 32 {
			t.Fatalf("frame %d: %+v, %v", f, res, err)
		}
	}
	live := exportOf(t, old)
	if err := old.Close(); err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(filepath.Join(wal, "wal-00000005.log"))
	if err != nil {
		t.Fatal(err)
	}
	if types := recordTypes(t, b); !slices.Contains(types, 0x02) {
		t.Fatalf("the new segment holds record types %x, want arrival runs", types)
	}

	reborn := open()
	defer reborn.Close()
	replay(reborn, 808+6*32)
	if got := exportOf(t, reborn); !bytes.Equal(got, live) {
		t.Fatal("old point records followed by arrival runs replay to a different store")
	}
}
