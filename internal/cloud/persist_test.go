package cloud

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"centuryscale/internal/sim"
)

func populatedStore(t *testing.T) *Store {
	t.Helper()
	s := NewStore(StaticKeys(master))
	for dev := uint64(1); dev <= 3; dev++ {
		for seq := uint32(1); seq <= 5; seq++ {
			at := time.Duration(seq) * sim.Week
			if err := s.Ingest(at, sealed(t, dev, seq, float32(seq)*1.5)); err != nil {
				t.Fatal(err)
			}
		}
	}
	return s
}

func TestSnapshotRoundTrip(t *testing.T) {
	orig := populatedStore(t)
	var buf bytes.Buffer
	if err := orig.WriteSnapshot(&buf); err != nil {
		t.Fatal(err)
	}
	// A build that enforced lease lapses wrote them into the snapshot.
	lapse := []byte(fmt.Sprintf(`"lapses":[[%d,%d]]`, 10*sim.Week, 11*sim.Week))
	data := bytes.Replace(buf.Bytes(), []byte(`"lapses":null`), lapse, 1)
	if bytes.Equal(data, buf.Bytes()) {
		t.Fatal(`the export has no "lapses":null to replace`)
	}

	restored := NewStore(StaticKeys(master))
	if err := restored.ReadSnapshot(bytes.NewReader(data)); err != nil {
		t.Fatal(err)
	}

	if restored.Count() != orig.Count() {
		t.Fatalf("counts: %d vs %d", restored.Count(), orig.Count())
	}
	if len(restored.Devices()) != 3 {
		t.Fatalf("devices = %d", len(restored.Devices()))
	}
	// Histories byte-identical.
	for _, dev := range orig.Devices() {
		oh, rh := orig.History(dev), restored.History(dev)
		if len(oh) != len(rh) {
			t.Fatalf("history length mismatch for %v", dev)
		}
		for i := range oh {
			if oh[i] != rh[i] {
				t.Fatalf("reading %d differs: %+v vs %+v", i, oh[i], rh[i])
			}
		}
	}
	// Weekly uptime preserved.
	if restored.WeeklyUptime(6*sim.Week) != orig.WeeklyUptime(6*sim.Week) {
		t.Fatal("weekly uptime diverged")
	}
	// Lapses carried into the export, and no longer refusing anything.
	var again bytes.Buffer
	if err := restored.WriteSnapshot(&again); err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(again.Bytes(), lapse) {
		t.Fatal("restored lapses missing from the export")
	}
	if err := restored.Ingest(10*sim.Week+time.Hour, sealed(t, 1, 99, 1)); err != nil {
		t.Fatalf("packet inside a restored lapse window refused: %v", err)
	}
}

func TestSnapshotRebuildsReplayGuard(t *testing.T) {
	orig := populatedStore(t)
	var buf bytes.Buffer
	if err := orig.WriteSnapshot(&buf); err != nil {
		t.Fatal(err)
	}
	restored := NewStore(StaticKeys(master))
	if err := restored.ReadSnapshot(&buf); err != nil {
		t.Fatal(err)
	}
	// Replaying an old packet after restore must still be rejected.
	if err := restored.Ingest(20*sim.Week, sealed(t, 1, 3, 4.5)); err == nil {
		t.Fatal("replay admitted after restore")
	}
	// But new sequence numbers flow.
	if err := restored.Ingest(20*sim.Week, sealed(t, 1, 6, 9)); err != nil {
		t.Fatalf("fresh packet rejected after restore: %v", err)
	}
}

func TestSnapshotVersionCheck(t *testing.T) {
	s := NewStore(StaticKeys(master))
	if err := s.ReadSnapshot(strings.NewReader(`{"version": 99}`)); err == nil {
		t.Fatal("future snapshot version accepted")
	}
	if err := s.ReadSnapshot(strings.NewReader(`not json`)); err == nil {
		t.Fatal("garbage snapshot accepted")
	}
	if err := s.ReadSnapshot(strings.NewReader(`{"version":1,"readings":{"bogus":[]}}`)); err == nil {
		t.Fatal("bad device address accepted")
	}
}

func TestSaveLoadFile(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "store.json")
	orig := populatedStore(t)
	if err := orig.SaveFile(path); err != nil {
		t.Fatal(err)
	}
	restored := NewStore(StaticKeys(master))
	if err := restored.LoadFile(path); err != nil {
		t.Fatal(err)
	}
	if restored.Count() != orig.Count() {
		t.Fatal("file round trip lost readings")
	}
	// Saving again overwrites atomically.
	if err := restored.Ingest(30*sim.Week, sealed(t, 9, 1, 1)); err != nil {
		t.Fatal(err)
	}
	if err := restored.SaveFile(path); err != nil {
		t.Fatal(err)
	}
	again := NewStore(StaticKeys(master))
	if err := again.LoadFile(path); err != nil {
		t.Fatal(err)
	}
	if again.Count() != orig.Count()+1 {
		t.Fatalf("resave count = %d", again.Count())
	}
}

// A -snapshot path whose directory does not exist fails the save and
// creates nothing: a mistyped path must degrade the endpoint, not grow a
// directory tree (the verify skill's degraded-endpoint probe).
func TestSaveIntoMissingDirectoryFails(t *testing.T) {
	dir := t.TempDir()
	if err := populatedStore(t).SaveFile(filepath.Join(dir, "nope", "store.json")); err == nil {
		t.Fatal("save into a missing directory succeeded")
	}
	if _, err := os.Stat(filepath.Join(dir, "nope")); err == nil {
		t.Fatal("a failed save created the missing directory")
	}
}

func TestLoadMissingFileIsFreshStart(t *testing.T) {
	s := NewStore(StaticKeys(master))
	if err := s.LoadFile(filepath.Join(t.TempDir(), "nope.json")); err != nil {
		t.Fatalf("missing snapshot errored: %v", err)
	}
	if s.Count() != 0 {
		t.Fatal("fresh start not empty")
	}
}

// TestDirOf pins where SaveFile stages the manifest: always beside it, so
// the rename cannot cross a filesystem. The hand-rolled dirOf this
// replaced answered "" for a file in the root directory, and
// os.CreateTemp("") falls back to $TMPDIR.
func TestDirOf(t *testing.T) {
	for path, want := range map[string]string{
		"/a/b/c.json":    "/a/b/.c.json.tmp",
		"c.json":         ".c.json.tmp",
		"/snapshot.json": "/.snapshot.json.tmp",
		"./d/c.json":     "d/.c.json.tmp",
	} {
		if got := tempPath(path); got != want {
			t.Errorf("tempPath(%q) = %q, want %q", path, got, want)
		}
		if filepath.Dir(tempPath(path)) != filepath.Dir(path) {
			t.Errorf("tempPath(%q) left the snapshot's directory", path)
		}
	}
}

func TestSnapshotEmptyStore(t *testing.T) {
	s := NewStore(StaticKeys(master))
	var buf bytes.Buffer
	if err := s.WriteSnapshot(&buf); err != nil {
		t.Fatal(err)
	}
	r := NewStore(StaticKeys(master))
	if err := r.ReadSnapshot(&buf); err != nil {
		t.Fatal(err)
	}
	if r.Count() != 0 || len(r.Devices()) != 0 {
		t.Fatal("empty snapshot round trip not empty")
	}
}
