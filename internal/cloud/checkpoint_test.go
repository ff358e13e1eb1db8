package cloud

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"centuryscale/internal/batch"
	"centuryscale/internal/lpwan"
	"centuryscale/internal/obs"
	"centuryscale/internal/rollup"
	"centuryscale/internal/tsdb"
)

// faultFS is the fault injector behind the checkpoint writer's seam: the
// real filesystem, a log of every operation that reached it, and one
// scripted failure. In "error" mode the chosen operation fails once and
// the process lives on; in "crash" mode it and everything after it never
// happen, which is what a power cut at that instant leaves on disk. With
// short set, a failing write first lets half its bytes through.
type faultFS struct {
	mu      sync.Mutex
	ops     []string
	failAt  int // index into ops of the operation to fail; -1 for none
	crash   bool
	short   bool
	crashed bool
}

var (
	errInjected = fmt.Errorf("injected: %w", syscall.ENOSPC)
	errCrashed  = errors.New("injected: the process is dead")
)

// step records one operation and decides its fate: nil lets it through.
func (fs *faultFS) step(op string) error {
	_, err := fs.stepAt(op)
	return err
}

// stepAt is step, also reporting whether op is the scripted failure
// itself (and not something a dead process never got to).
func (fs *faultFS) stepAt(op string) (scripted bool, err error) {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	if fs.crashed {
		return false, errCrashed
	}
	i := len(fs.ops)
	fs.ops = append(fs.ops, op)
	if i != fs.failAt {
		return false, nil
	}
	if fs.crash {
		fs.crashed = true
		return true, errCrashed
	}
	return true, errInjected
}

func (fs *faultFS) Mkdir(dir string) error {
	if err := fs.step("mkdir " + filepath.Base(dir)); err != nil {
		return err
	}
	return osFS{}.Mkdir(dir)
}

func (fs *faultFS) Rename(from, to string) error {
	if err := fs.step("rename " + filepath.Base(to)); err != nil {
		return err
	}
	return osFS{}.Rename(from, to)
}

func (fs *faultFS) Remove(path string) error {
	if err := fs.step("remove " + filepath.Base(path)); err != nil {
		return err
	}
	return osFS{}.Remove(path)
}

func (fs *faultFS) SyncDir(dir string) error {
	if err := fs.step("syncdir " + filepath.Base(dir)); err != nil {
		return err
	}
	return osFS{}.SyncDir(dir)
}

func (fs *faultFS) OpenAppend(path string) (ckptFile, error) {
	if err := fs.step("open " + filepath.Base(path)); err != nil {
		return nil, err
	}
	f, err := osFS{}.OpenAppend(path)
	if err != nil {
		return nil, err
	}
	return &faultFile{fs: fs, f: f, name: filepath.Base(path)}, nil
}

type faultFile struct {
	fs   *faultFS
	f    ckptFile
	name string
}

func (ff *faultFile) Write(p []byte) (int, error) {
	if scripted, err := ff.fs.stepAt("write " + ff.name); err != nil {
		n := 0
		if scripted && ff.fs.short {
			n, _ = ff.f.Write(p[:len(p)/2])
		}
		return n, err
	}
	return ff.f.Write(p)
}

func (ff *faultFile) Sync() error {
	if err := ff.fs.step("sync " + ff.name); err != nil {
		return err
	}
	return ff.f.Sync()
}

func (ff *faultFile) Truncate(size int64) error {
	if err := ff.fs.step("truncate " + ff.name); err != nil {
		return err
	}
	return ff.f.Truncate(size)
}

// Close always releases the real descriptor: a dead process's files are
// closed by the kernel, and a leaked one would only starve the test.
func (ff *faultFile) Close() error {
	err := ff.fs.step("close " + ff.name)
	return errors.Join(err, ff.f.Close())
}

// archiveRig is a durable rollup endpoint on a temp directory, with the
// traffic every checkpoint test feeds it.
type archiveRig struct {
	t    *testing.T
	dir  string
	snap string
}

const rigRetain = 24 * time.Hour

func newRig(t *testing.T) *archiveRig {
	dir := t.TempDir()
	return &archiveRig{t: t, dir: dir, snap: filepath.Join(dir, "snapshot.json")}
}

// open starts a store on the rig's WAL without loading anything.
func (r *archiveRig) open() *Store {
	r.t.Helper()
	db, err := tsdb.Open(tsdb.Options{Dir: filepath.Join(r.dir, "tsdb"), Shards: 4, Sync: tsdb.SyncNever})
	if err != nil {
		r.t.Fatal(err)
	}
	s := NewStoreWithDB(StaticKeys(master), db)
	if err := s.EnableRollups(rollup.Config{}, rigRetain); err != nil {
		r.t.Fatal(err)
	}
	return s
}

// boot is what endpointd does: open, load the checkpoint, replay the WAL.
func (r *archiveRig) boot() *Store {
	r.t.Helper()
	s := r.open()
	if err := s.LoadFile(r.snap); err != nil {
		r.t.Fatalf("boot: %v", err)
	}
	if _, err := s.ReplayWAL(); err != nil {
		r.t.Fatal(err)
	}
	return s
}

// feedDays ingests days [from, to) of a fixed stream: three devices, one
// reading every 20 minutes, sequence numbers continuing across calls.
func feedDays(t *testing.T, s *Store, from, to int) (n int) {
	t.Helper()
	const perDay = 72
	for _, dev := range []uint64{0xC1, 0xC2, 0xC3} {
		for i := from * perDay; i < to*perDay; i++ {
			at := time.Duration(i)*20*time.Minute + time.Duration(dev%7)*time.Minute
			if err := s.Ingest(at, sealed(t, dev, uint32(i+1), float32(i%17))); err != nil {
				t.Fatalf("ingest dev %x reading %d: %v", dev, i, err)
			}
			n++
		}
	}
	return n
}

func exportOf(t *testing.T, s *Store) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := s.WriteSnapshot(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// walSegments lists the rig's WAL segment files.
func (r *archiveRig) walSegments() []string {
	names, _ := filepath.Glob(filepath.Join(r.dir, "tsdb", "wal", "*.log"))
	return names
}

func readManifest(t *testing.T, snap string) (m manifest) {
	t.Helper()
	data, err := os.ReadFile(snap)
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(data, &m); err != nil {
		t.Fatal(err)
	}
	return m
}

// sealedOnce reads every sealed segment the manifest at snap names, to
// its recorded length, and fails if any bucket was written twice (K2). It
// returns how many buckets the archive holds.
func sealedOnce(t *testing.T, snap string) int {
	t.Helper()
	m := readManifest(t, snap)
	type key struct {
		dev   lpwan.EUI64
		tier  byte
		start time.Duration
	}
	seen := map[key]bool{}
	for _, f := range m.Sealed {
		err := readDataFile(snap+".d", f, sealedPrefix, func(r io.Reader) error {
			return decodeSealed(r, func(dev lpwan.EUI64, tier byte, bs []rollup.Bucket) {
				for _, b := range bs {
					k := key{dev, tier, b.Start}
					if seen[k] {
						t.Errorf("%s: bucket %v tier %d start %v written twice", f.Name, dev, tier, b.Start)
					}
					seen[k] = true
				}
			})
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	return len(seen)
}

// onlyNamedFiles fails if <snap>.d holds a file the manifest does not name.
func onlyNamedFiles(t *testing.T, snap string) {
	t.Helper()
	m := readManifest(t, snap)
	want := []string{m.Tail.Name}
	for _, f := range m.Sealed {
		want = append(want, f.Name)
	}
	sort.Strings(want)
	entries, err := os.ReadDir(snap + ".d")
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, e := range entries {
		got = append(got, e.Name())
	}
	if strings.Join(got, " ") != strings.Join(want, " ") {
		t.Errorf("%s.d holds %v, the manifest names %v", snap, got, want)
	}
}

// TestCheckpointCrashPoints is K1 and K2, operation by operation. A
// control run records every operation one checkpoint sends through the
// seam — once for the first checkpoint of an archive (a full base), once
// for a later one (a delta) — and then each operation in turn is made to
// fail (ENOSPC, the process lives) or to be the last thing that happened
// (a crash), with short writes tried on every write. Whatever is then on
// disk must boot to exactly the control's state before the checkpoint or
// after it, never a mixture; a checkpoint that did not commit must not
// have truncated the WAL or advanced what it thinks is written; the
// server is degraded after a failure and healthy after the retry; and
// once a checkpoint does succeed every bucket is in the archive exactly
// once and nothing unnamed is left beside it.
func TestCheckpointCrashPoints(t *testing.T) {
	for _, which := range []string{"base", "delta"} {
		// prepare brings a rig to the eve of the checkpoint under test.
		prepare := func(t *testing.T) (*archiveRig, *Store) {
			r := newRig(t)
			s := r.boot()
			feedDays(t, s, 0, 4)
			if which == "delta" {
				if err := s.Checkpoint(r.snap); err != nil {
					t.Fatal(err)
				}
				feedDays(t, s, 4, 7)
			}
			return r, s
		}

		// The control: the states either side of the checkpoint, and the
		// operations it is made of.
		cr, control := prepare(t)
		pre := exportOf(t, control)
		rec := &faultFS{failAt: -1}
		control.fs = rec
		if err := control.Checkpoint(cr.snap); err != nil {
			t.Fatal(err)
		}
		post := exportOf(t, control)
		if bytes.Equal(pre, post) {
			t.Fatal("the checkpoint under test folded nothing: pre and post states are the same")
		}
		ops := rec.ops
		t.Logf("%s checkpoint: %d operations: %s", which, len(ops), strings.Join(ops, ", "))
		kinds := map[string]bool{}
		for _, op := range ops {
			kind, _, _ := strings.Cut(op, " ")
			kinds[kind] = true
		}
		for _, kind := range []string{"mkdir", "open", "truncate", "write", "sync", "close", "rename", "syncdir"} {
			if !kinds[kind] {
				t.Errorf("%s checkpoint never issued a %s: the enumeration does not cover the seam", which, kind)
			}
		}
		if which == "delta" && !strings.Contains(strings.Join(ops, ","), "remove tail-") {
			t.Error("delta checkpoint never removed the superseded tail")
		}
		control.Close()

		for i, op := range ops {
			for _, mode := range []string{"error", "crash", "short-error", "short-crash"} {
				if strings.HasPrefix(mode, "short") && !strings.HasPrefix(op, "write ") {
					continue
				}
				t.Run(fmt.Sprintf("%s/%02d %s/%s", which, i, op, mode), func(t *testing.T) {
					r, s := prepare(t)
					srv := NewServer(s, time.Now())
					walBefore := r.walSegments()
					s.fs = &faultFS{failAt: i, crash: strings.HasSuffix(mode, "crash"), short: strings.HasPrefix(mode, "short")}
					err := srv.Checkpoint(r.snap)

					if err != nil {
						if !srv.Degraded() {
							t.Error("a failed checkpoint left the server healthy")
						}
						// Not committed as far as the store knows: the log
						// it would have covered must all still be there.
						for _, seg := range walBefore {
							if _, serr := os.Stat(seg); serr != nil {
								t.Errorf("failed checkpoint truncated the WAL: %v", serr)
							}
						}
					} else if strings.HasSuffix(mode, "crash") && !strings.HasPrefix(op, "remove ") {
						t.Errorf("checkpoint reported success although it died at %q", op)
					}

					// Reboot on what is on disk, as after a power cut at
					// this point (or straight after the failure).
					b := r.boot()
					got := exportOf(t, b)
					switch {
					case bytes.Equal(got, pre), bytes.Equal(got, post):
					default:
						t.Fatalf("after %s at %q the disk boots to neither the pre- nor the post-checkpoint state", mode, op)
					}
					if err == nil && !bytes.Equal(got, post) {
						t.Error("checkpoint reported success but the disk boots to the old state")
					}
					b.Close()

					if strings.HasSuffix(mode, "crash") {
						return
					}
					// The process lived: the fault heals, the next tick
					// retries, and everything converges on the control.
					s.fs = osFS{}
					if err := srv.Checkpoint(r.snap); err != nil {
						t.Fatalf("retry: %v", err)
					}
					if srv.Degraded() {
						t.Error("server still degraded after a successful checkpoint")
					}
					if got := exportOf(t, s); !bytes.Equal(got, post) {
						t.Error("live state after the retry differs from the control's post-checkpoint state")
					}
					b = r.boot()
					defer b.Close()
					if got := exportOf(t, b); !bytes.Equal(got, post) {
						t.Error("reboot after the retry differs from the control's post-checkpoint state")
					}
					sealedOnce(t, r.snap)
					onlyNamedFiles(t, r.snap)
					for _, seg := range walBefore {
						if _, err := os.Stat(seg); err == nil {
							t.Errorf("the committed retry left WAL segment %s behind", seg)
						}
					}
				})
			}
		}
	}
}

// TestCrashedCheckpointConverges finishes what TestCheckpointCrashPoints
// starts for the crash cases: the store rebooted on a crashed
// checkpoint's leftovers — bytes past a recorded length, a tail no
// manifest names, a staged manifest — takes its own next checkpoint over
// them, and ends byte-identical to a store that never crashed, with the
// strays reclaimed and no bucket written twice.
func TestCrashedCheckpointConverges(t *testing.T) {
	cr := newRig(t)
	control := cr.boot()
	defer control.Close()
	feedDays(t, control, 0, 4)
	if err := control.Checkpoint(cr.snap); err != nil {
		t.Fatal(err)
	}
	feedDays(t, control, 4, 7)
	rec := &faultFS{failAt: -1}
	control.fs = rec
	if err := control.Checkpoint(cr.snap); err != nil {
		t.Fatal(err)
	}
	want := exportOf(t, control)

	for i, op := range rec.ops {
		t.Run(fmt.Sprintf("%02d %s", i, op), func(t *testing.T) {
			r := newRig(t)
			s := r.boot()
			feedDays(t, s, 0, 4)
			if err := s.Checkpoint(r.snap); err != nil {
				t.Fatal(err)
			}
			feedDays(t, s, 4, 7)
			s.fs = &faultFS{failAt: i, crash: true, short: true}
			_ = s.Checkpoint(r.snap) // dies at op

			b := r.boot()
			defer b.Close()
			if err := b.Checkpoint(r.snap); err != nil {
				t.Fatal(err)
			}
			if got := exportOf(t, b); !bytes.Equal(got, want) {
				t.Error("state after the post-crash checkpoint differs from the never-crashed control")
			}
			again := r.boot()
			defer again.Close()
			if got := exportOf(t, again); !bytes.Equal(got, want) {
				t.Error("reboot after the post-crash checkpoint differs from the never-crashed control")
			}
			sealedOnce(t, r.snap)
			onlyNamedFiles(t, r.snap)
			if _, err := os.Stat(tempPath(r.snap)); err == nil {
				t.Error("staged manifest left behind")
			}
		})
	}
}

// TestSealedBucketsWrittenOnce is K2 without faults: over a run of
// checkpoints each sealed bucket lands in a segment exactly once, the
// later checkpoints write only the new ones, a checkpoint to a path the
// store did not load or last save is a full base, and small segments
// rotate without splitting or repeating anything.
func TestSealedBucketsWrittenOnce(t *testing.T) {
	r := newRig(t)
	s := r.boot()
	defer s.Close()
	s.segmentBytes = 4096 // a few dozen buckets a file
	var lastBuckets, lastBytes uint64
	for day := 0; day < 10; day += 2 {
		feedDays(t, s, day, day+2)
		if err := s.Checkpoint(r.snap); err != nil {
			t.Fatal(err)
		}
		hourly, daily := s.Rollups().Buckets()
		if got := sealedOnce(t, r.snap); got != hourly+daily {
			t.Fatalf("day %d: archive holds %d buckets, the engine %d", day, got, hourly+daily)
		}
		if got := s.ckptBuckets.Load(); got != uint64(hourly+daily) {
			t.Fatalf("day %d: %d buckets written in all, the engine holds %d: something was written twice or not at all", day, got, hourly+daily)
		}
		if day >= 4 {
			// Steady state: two days of new buckets, one raw window.
			if db, dby := s.ckptBuckets.Load()-lastBuckets, s.ckptBytes.Load()-lastBytes; db > 200 || dby > 200*bucketSize+4*72*3*tsdb.RecordSize {
				t.Fatalf("day %d: checkpoint wrote %d buckets, %d bytes: not a delta", day, db, dby)
			}
		}
		lastBuckets, lastBytes = s.ckptBuckets.Load(), s.ckptBytes.Load()
		onlyNamedFiles(t, r.snap)
	}
	if n := s.ckptSegments.Load(); n < 3 {
		t.Fatalf("%d sealed segments at 4 KiB each: rotation never happened", n)
	}
	want := exportOf(t, s)
	b := r.boot()
	defer b.Close()
	if got := exportOf(t, b); !bytes.Equal(got, want) {
		t.Fatal("reboot from rotated segments differs from the live store")
	}

	// A path this store never loaded or saved: everything, from scratch.
	elsewhere := filepath.Join(r.dir, "elsewhere", "copy.json")
	if err := os.MkdirAll(filepath.Dir(elsewhere), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := s.SaveFile(elsewhere); err != nil {
		t.Fatal(err)
	}
	hourly, daily := s.Rollups().Buckets()
	if got := sealedOnce(t, elsewhere); got != hourly+daily {
		t.Fatalf("base at a new path holds %d buckets, the engine %d", got, hourly+daily)
	}
	// And back: the first path is foreign again, so it too is rewritten
	// whole — over an archive that stays loadable until the commit.
	if err := s.SaveFile(r.snap); err != nil {
		t.Fatal(err)
	}
	if got := sealedOnce(t, r.snap); got != hourly+daily {
		t.Fatalf("base over an existing archive holds %d buckets, the engine %d", got, hourly+daily)
	}
	onlyNamedFiles(t, r.snap)
}

// TestArchiveByteExact is K3: a store booted from manifest + segments +
// tail and one that read the JSON export of the same state are the same
// store — the same export bytes and the same /query, /history and
// /query/gaps answers — and the files themselves are a function of the
// inputs, byte for byte.
func TestArchiveByteExact(t *testing.T) {
	digest := func(root string) string {
		var sb strings.Builder
		err := filepath.Walk(root, func(path string, info os.FileInfo, err error) error {
			if err != nil || !info.Mode().IsRegular() || strings.Contains(path, "tsdb") {
				return err
			}
			b, err := os.ReadFile(path)
			rel, _ := filepath.Rel(root, path)
			fmt.Fprintf(&sb, "%s %d %08x\n", rel, len(b), crc32.Checksum(b, castagnoli))
			return err
		})
		if err != nil {
			t.Fatal(err)
		}
		return sb.String()
	}
	build := func() (*archiveRig, *Store) {
		r := newRig(t)
		s := r.boot()
		s.AddLapse(400*time.Hour, 401*time.Hour)
		feedDays(t, s, 0, 4)
		if err := s.Checkpoint(r.snap); err != nil {
			t.Fatal(err)
		}
		feedDays(t, s, 4, 8)
		if err := s.Checkpoint(r.snap); err != nil {
			t.Fatal(err)
		}
		return r, s
	}
	r, live := build()
	defer live.Close()
	r2, twin := build()
	twin.Close()
	if a, b := digest(r.dir), digest(r2.dir); a != b {
		t.Fatalf("the same inputs left different files:\n%s\nvs\n%s", a, b)
	}
	if _, err := os.Stat(tempPath(r.snap)); err == nil {
		t.Error("staged manifest left behind")
	}

	fromSegments := r.boot()
	defer fromSegments.Close()
	fromJSON := NewStore(StaticKeys(master))
	if err := fromJSON.EnableRollups(rollup.Config{}, rigRetain); err != nil {
		t.Fatal(err)
	}
	if err := fromJSON.ReadSnapshot(bytes.NewReader(exportOf(t, live))); err != nil {
		t.Fatal(err)
	}
	want := exportOf(t, live)
	if got := exportOf(t, fromSegments); !bytes.Equal(got, want) {
		t.Error("export of the store booted from segments differs from the live store's")
	}
	if got := exportOf(t, fromJSON); !bytes.Equal(got, want) {
		t.Error("export of the store that read the JSON differs from the live store's")
	}
	sameAnswers(t, fromSegments, fromJSON)
	sameAnswers(t, fromSegments, live)
}

// sameAnswers requires two stores to answer the read routes identically.
func sameAnswers(t *testing.T, a, b *Store) {
	t.Helper()
	start := time.Now()
	sa, sb := NewServer(a, start), NewServer(b, start)
	urls := []string{"/query/gaps?k=5", "/devices"}
	for _, dev := range a.Rollups().Devices() {
		urls = append(urls,
			fmt.Sprintf("/query?device=%s&step=21600&from=0", dev),
			fmt.Sprintf("/query?device=%s&step=604800&from=0", dev),
			fmt.Sprintf("/history?device=%s", dev))
	}
	for _, u := range urls {
		get := func(srv *Server) string {
			w := httptest.NewRecorder()
			srv.ServeHTTP(w, httptest.NewRequest("GET", u, nil))
			if w.Code != 200 {
				t.Fatalf("GET %s: %d %s", u, w.Code, w.Body.String())
			}
			return w.Body.String()
		}
		if ga, gb := get(sa), get(sb); ga != gb {
			t.Errorf("GET %s differs:\n%s\nvs\n%s", u, ga, gb)
		}
	}
}

// TestDamagedSegmentRefusesBoot is K5: after the WAL behind a checkpoint
// is truncated the segments are the only copy, so a named file that is
// missing, short, or fails a CRC anywhere below its recorded length stops
// the load with the file (and the offset, where there is one) — and
// leaves the store it was loading into untouched. Bytes past the
// recorded length and files the manifest does not name are not damage.
func TestDamagedSegmentRefusesBoot(t *testing.T) {
	r := newRig(t)
	s := r.boot()
	feedDays(t, s, 0, 6)
	if err := s.Checkpoint(r.snap); err != nil {
		t.Fatal(err)
	}
	s.Close()
	sealedPath := filepath.Join(r.snap+".d", s.arch.sealed[0].Name)
	tailPath := filepath.Join(r.snap+".d", s.arch.tail.Name)
	pristine := map[string][]byte{}
	for _, p := range []string{sealedPath, tailPath, r.snap} {
		b, err := os.ReadFile(p)
		if err != nil {
			t.Fatal(err)
		}
		pristine[p] = b
	}
	restore := func() {
		for p, b := range pristine {
			if err := os.WriteFile(p, b, 0o644); err != nil {
				t.Fatal(err)
			}
		}
	}
	flip := func(path string, at int) func() {
		return func() {
			b := append([]byte(nil), pristine[path]...)
			b[at] ^= 0x40
			if err := os.WriteFile(path, b, 0o644); err != nil {
				t.Fatal(err)
			}
		}
	}
	cases := []struct {
		name   string
		damage func()
		want   []string // substrings of the error
	}{
		{"sealed: flipped bucket byte", flip(sealedPath, segFrameHeader+100), []string{sealedPath, "offset 0", "CRC"}},
		{"sealed: flipped length", flip(sealedPath, 2), []string{sealedPath, "offset 0", "bad frame header"}},
		{"sealed: flipped byte in the last frame", flip(sealedPath, len(pristine[sealedPath])-5), []string{sealedPath, "offset ", "CRC"}},
		{"sealed: short by one frame's tail", func() { os.Truncate(sealedPath, int64(len(pristine[sealedPath])-7)) }, []string{sealedPath, "torn frame"}},
		{"sealed: empty", func() { os.Truncate(sealedPath, 0) }, []string{sealedPath, "0 bytes on disk"}},
		{"sealed: missing", func() { os.Remove(sealedPath) }, []string{sealedPath}},
		{"tail: flipped byte", flip(tailPath, tsdb.RecordSize*3+20), []string{tailPath, fmt.Sprintf("offset %d", tsdb.RecordSize*3), "CRC"}},
		{"tail: short", func() { os.Truncate(tailPath, int64(len(pristine[tailPath])-10)) }, []string{tailPath, "torn"}},
		{"tail: missing", func() { os.Remove(tailPath) }, []string{tailPath}},
		{"manifest: names a path outside its directory", func() {
			os.WriteFile(r.snap, bytes.Replace(pristine[r.snap], []byte(`"name":"tail-`), []byte(`"name":"../tail-`), 1), 0o644)
		}, []string{"bad tail file"}},
		{"manifest: wrong CRC for the tail", func() {
			os.WriteFile(r.snap, bytes.Replace(pristine[r.snap], []byte(fmt.Sprintf(`"crc32c":%d}}`, s.arch.tail.CRC)), []byte(`"crc32c":1}}`), 1), 0o644)
		}, []string{tailPath, "CRC-32C"}},
		{"manifest: torn", func() { os.WriteFile(r.snap, pristine[r.snap][:len(pristine[r.snap])/2], 0o644) }, []string{"decode"}},
		{"manifest: from a later build", func() {
			os.WriteFile(r.snap, bytes.Replace(pristine[r.snap], []byte(`{"version":3,`), []byte(`{"version":4,`), 1), 0o644)
		}, []string{"format version 4", "reads 1-3"}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			defer restore()
			tc.damage()
			b := NewStore(StaticKeys(master))
			if err := b.EnableRollups(rollup.Config{}, rigRetain); err != nil {
				t.Fatal(err)
			}
			feedDays(t, b, 20, 21) // state a failed load must leave alone
			before := exportOf(t, b)
			err := b.LoadFile(r.snap)
			if err == nil {
				t.Fatal("damaged archive loaded")
			}
			for _, w := range tc.want {
				if !strings.Contains(err.Error(), w) {
					t.Errorf("error %q does not mention %q", err, w)
				}
			}
			if got := exportOf(t, b); !bytes.Equal(got, before) {
				t.Error("failed load changed the store")
			}
		})
	}

	// Not damage: garbage past a recorded length, and an unnamed file.
	f, err := os.OpenFile(sealedPath, os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	f.Write([]byte("left by a checkpoint that crashed mid-append"))
	f.Close()
	os.WriteFile(filepath.Join(r.snap+".d", "tail-00000099.seg"), []byte("stray"), 0o644)
	b := r.boot()
	defer b.Close()
	if got, want := exportOf(t, b), exportOf(t, s); !bytes.Equal(got, want) {
		t.Fatal("bytes past the recorded length or an unnamed file changed what was loaded")
	}
}

// TestFrameWorkloadDirectoryUnchanged is K6: a durable store that never
// checkpoints (an endpointd without -snapshot) leaves nothing on disk
// but its WAL, at exactly one 38-byte record per accepted packet.
func TestFrameWorkloadDirectoryUnchanged(t *testing.T) {
	r := newRig(t)
	s := r.boot()
	n := feedDays(t, s, 0, 2)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	var total int64
	err := filepath.Walk(r.dir, func(path string, info os.FileInfo, err error) error {
		if err != nil || info.IsDir() {
			return err
		}
		if filepath.Dir(path) != filepath.Join(r.dir, "tsdb", "wal") || !strings.HasSuffix(path, ".log") {
			t.Errorf("unexpected file %s", path)
		}
		total += info.Size()
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if total != int64(n)*38 || tsdb.RecordSize != 38 {
		t.Fatalf("%d bytes on disk for %d packets, want exactly 38 each", total, n)
	}
}

// TestCheckpointCostIndependentOfArchiveAge builds the same deployment
// at one age and at twice that, and requires the checkpoint that follows
// one more day of traffic to write the same bytes and buckets in both:
// the cost of a checkpoint is the delta and the raw window, not the
// archive behind them.
func TestCheckpointCostIndependentOfArchiveAge(t *testing.T) {
	measure := func(days int) (bytes, buckets uint64, base uint64) {
		r := newRig(t)
		s := r.boot()
		defer s.Close()
		feedDays(t, s, 0, days)
		if err := s.Checkpoint(r.snap); err != nil {
			t.Fatal(err)
		}
		base = s.ckptBytes.Load()
		b0, k0 := s.ckptBytes.Load(), s.ckptBuckets.Load()
		feedDays(t, s, days, days+1)
		if err := s.Checkpoint(r.snap); err != nil {
			t.Fatal(err)
		}
		return s.ckptBytes.Load() - b0, s.ckptBuckets.Load() - k0, base
	}
	youngBytes, youngBuckets, youngBase := measure(20)
	oldBytes, oldBuckets, oldBase := measure(40)
	if oldBase < youngBase*3/2 {
		t.Fatalf("base checkpoints wrote %d and %d bytes: the older archive is not larger, the test measures nothing", youngBase, oldBase)
	}
	if youngBuckets == 0 || youngBuckets != oldBuckets {
		t.Fatalf("in-window checkpoint wrote %d buckets at 20 days and %d at 40", youngBuckets, oldBuckets)
	}
	// The manifest's week ledger grows by a few bytes a week; nothing else may.
	if diff := int64(oldBytes) - int64(youngBytes); diff < -64 || diff > 64 {
		t.Fatalf("in-window checkpoint wrote %d bytes at 20 days and %d at 40", youngBytes, oldBytes)
	}
}

// TestAcceptedExactAfterCrash is F5. Checkpoints are cut while frames and
// single packets are being admitted; the process is then abandoned
// without a final checkpoint and rebooted from the last manifest plus
// the WAL. Stats.Accepted must come back equal to the packets that were
// acknowledged — not short by the packets admitted between a
// checkpoint's counter copy and its series copy, which is what the old
// writer lost, and never high.
func TestAcceptedExactAfterCrash(t *testing.T) {
	r := newRig(t)
	s := r.boot()
	const (
		writers  = 4
		rounds   = 12
		perRound = 50 // readings 10 virtual minutes apart: rounds keep the writers inside one raw window of each other
	)
	stop := make(chan struct{})
	var bg sync.WaitGroup
	bg.Add(1)
	go func() {
		defer bg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			if err := s.Checkpoint(r.snap); err != nil {
				t.Errorf("checkpoint: %v", err)
				return
			}
		}
	}()
	var mu sync.Mutex
	acknowledged := 0
	for round := 0; round < rounds; round++ {
		var wg sync.WaitGroup
		for w := 0; w < writers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				for i := round * perRound; i < (round+1)*perRound; i++ {
					at, seq, n := time.Duration(i)*10*time.Minute, uint32(i+1), 1
					if i%2 == 0 {
						frame, err := batch.AppendFrame(nil, sealed(t, uint64(0x100+2*w), seq, 1), sealed(t, uint64(0x101+2*w), seq, 2))
						if err != nil {
							t.Error(err)
							return
						}
						res, err := s.IngestBatch(at, frame)
						if err != nil {
							t.Errorf("frame: %v", err)
							return
						}
						n = res.Accepted
					} else if err := s.Ingest(at, sealed(t, uint64(0x200+w), seq, 3)); err != nil {
						t.Errorf("packet: %v", err)
						return
					}
					mu.Lock()
					acknowledged += n
					mu.Unlock()
				}
			}(w)
		}
		wg.Wait()
	}
	close(stop)
	bg.Wait()
	if s.Rollups().FoldedBefore() == 0 || s.ckptSegments.Load() == 0 {
		t.Fatal("no checkpoint folded while the writers ran: the race under test never happened")
	}
	if got := s.Stats().Accepted; got != uint64(acknowledged) {
		t.Fatalf("live store counts %d accepted, %d were acknowledged", got, acknowledged)
	}
	// s is abandoned here: no Close, no final checkpoint.
	b := r.boot()
	defer b.Close()
	if got := b.Stats().Accepted; got != uint64(acknowledged) {
		t.Fatalf("after the crash the store counts %d accepted, %d were acknowledged", got, acknowledged)
	}
	var shards uint64
	for _, gs := range b.guards {
		shards += gs.accepted
	}
	if shards != uint64(acknowledged) {
		t.Fatalf("guard shards count %d admissions, %d were acknowledged", shards, acknowledged)
	}
	if held := rawCount(b) + int(bucketCount(b)); held != acknowledged {
		t.Fatalf("after the crash the store holds %d readings, %d were acknowledged", held, acknowledged)
	}
}

// TestLoadRemovesStaleTemps: a save that crashed before its rename leaves
// a staged file — ".snapshot-<random>" from older builds, the fixed
// staging name from this one — and the next load clears them.
func TestLoadRemovesStaleTemps(t *testing.T) {
	r := newRig(t)
	s := r.boot()
	defer s.Close()
	feedDays(t, s, 0, 3)
	if err := s.Checkpoint(r.snap); err != nil {
		t.Fatal(err)
	}
	stale := []string{filepath.Join(r.dir, ".snapshot-123456"), tempPath(r.snap)}
	for _, p := range stale {
		if err := os.WriteFile(p, []byte("half a snapshot"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	b := r.boot()
	defer b.Close()
	for _, p := range stale {
		if _, err := os.Stat(p); err == nil {
			t.Errorf("%s survived the load", p)
		}
	}
	if li := b.LastLoad(); li.Version != manifestVersion || li.Segments == 0 || li.Buckets == 0 || li.TailPoints == 0 {
		t.Errorf("LastLoad = %+v", li)
	}
}

// TestOldSnapshotsLoadForever is K4, pinned by files: testdata holds a
// version-1 and a version-2 JSON snapshot exactly as builds before the
// segment format wrote them (v2 by the last such build, v1 the same
// schema without a rollups section). Each must load from the -snapshot
// path, export byte-for-byte what it was, be replaced by a manifest at
// the next checkpoint, and boot from that to the same export and the
// same answers. The refusals that guarded the JSON loader guard the
// manifest loader too.
func TestOldSnapshotsLoadForever(t *testing.T) {
	const fixtureRetain = 36 * time.Hour
	for _, fx := range []struct {
		file    string
		rollups bool
	}{{"snapshot-v1.json", false}, {"snapshot-v2.json", true}} {
		t.Run(fx.file, func(t *testing.T) {
			fixture, err := os.ReadFile(filepath.Join("testdata", fx.file))
			if err != nil {
				t.Fatal(err)
			}
			// The export is always written at the current JSON version.
			want := bytes.Replace(fixture, []byte(`{"version":1,`), []byte(`{"version":2,`), 1)
			snap := filepath.Join(t.TempDir(), "store.json")
			if err := os.WriteFile(snap, fixture, 0o644); err != nil {
				t.Fatal(err)
			}
			open := func() *Store {
				s := NewStore(StaticKeys(master))
				if fx.rollups {
					if err := s.EnableRollups(rollup.Config{}, fixtureRetain); err != nil {
						t.Fatal(err)
					}
				}
				return s
			}
			direct := open()
			if err := direct.ReadSnapshot(bytes.NewReader(fixture)); err != nil {
				t.Fatal(err)
			}

			old := open()
			if err := old.LoadFile(snap); err != nil {
				t.Fatalf("loading the fixture: %v", err)
			}
			if li := old.LastLoad(); li.Version == manifestVersion || li.Version == 0 {
				t.Fatalf("LastLoad = %+v, want the fixture's JSON version", li)
			}
			if got := exportOf(t, old); !bytes.Equal(got, want) {
				t.Fatal("export after loading the fixture differs from the fixture")
			}
			if err := old.Checkpoint(snap); err != nil {
				t.Fatal(err)
			}
			if v := readManifest(t, snap).Version; v != manifestVersion {
				t.Fatalf("after a checkpoint the snapshot path holds version %d, want a version-%d manifest", v, manifestVersion)
			}
			onlyNamedFiles(t, snap)

			reborn := open()
			if err := reborn.LoadFile(snap); err != nil {
				t.Fatalf("loading the manifest that replaced the fixture: %v", err)
			}
			if li := reborn.LastLoad(); li.Version != manifestVersion {
				t.Fatalf("LastLoad = %+v", li)
			}
			if got := exportOf(t, reborn); !bytes.Equal(got, want) {
				t.Fatal("export after the v3 round trip differs from the fixture")
			}
			if fx.rollups {
				sameAnswers(t, reborn, direct)
				// Replay protection seeded from the buckets' MaxSeq.
				dev := reborn.Rollups().Devices()[0]
				seq := reborn.Rollups().MaxSeq(dev)
				if err := reborn.Ingest(reborn.HighWater()+time.Minute, sealed(t, dev.Uint64(), seq, 1)); err == nil {
					t.Error("replay of a folded packet admitted after the v3 round trip")
				}
				// The loader's refusals, for both formats at this path.
				jsonPath := filepath.Join(t.TempDir(), "store.json")
				if err := os.WriteFile(jsonPath, fixture, 0o644); err != nil {
					t.Fatal(err)
				}
				for name, snap := range map[string]string{"json": jsonPath, "manifest": snap} {
					bare := NewStore(StaticKeys(master))
					if err := bare.LoadFile(snap); err == nil || !strings.Contains(err.Error(), "rollups are disabled") {
						t.Errorf("%s into a store without rollups: %v", name, err)
					}
					wrong := NewStore(StaticKeys(master))
					if err := wrong.EnableRollups(rollup.Config{Hourly: 2 * time.Hour, Daily: 48 * time.Hour}, fixtureRetain); err != nil {
						t.Fatal(err)
					}
					if err := wrong.LoadFile(snap); err == nil || !strings.Contains(err.Error(), "geometry") {
						t.Errorf("%s into another tier geometry: %v", name, err)
					}
				}
			}
		})
	}
}

// TestCheckpointMetrics: the checkpoint's phases are timed on the
// injected clock (so two seeded runs scrape the same bytes), each phase
// observes as it completes and the total once per successful checkpoint,
// a failure is counted and leaves the phases it never reached alone, and
// timing costs the checkpoint no allocation, registered or not.
func TestCheckpointMetrics(t *testing.T) {
	run := func() string {
		r := newRig(t)
		s := r.boot()
		defer s.Close()
		reg := obs.NewRegistry()
		var now time.Duration
		s.RegisterMetrics(reg, func() time.Duration { now += time.Millisecond; return now })
		for day := 0; day < 6; day += 3 {
			feedDays(t, s, day, day+3)
			if err := s.Checkpoint(r.snap); err != nil {
				t.Fatal(err)
			}
		}
		s.fs = &faultFS{failAt: 3} // the tail's write: nothing new to seal, so the tail file is the first one touched
		if err := s.Checkpoint(r.snap); err == nil {
			t.Fatal("injected fault did not fail the checkpoint")
		}
		var lines []string
		for _, line := range strings.Split(string(reg.Exposition()), "\n") {
			if strings.HasPrefix(line, "cloud_checkpoint_") {
				lines = append(lines, line)
			}
		}
		exp := strings.Join(lines, "\n")
		hourly, daily := s.Rollups().Buckets()
		for _, want := range []string{
			"cloud_checkpoint_seconds_count 2",
			`cloud_checkpoint_phase_seconds_count{phase="fold"} 3`,
			`cloud_checkpoint_phase_seconds_count{phase="sealed"} 3`,
			`cloud_checkpoint_phase_seconds_count{phase="tail"} 2`, // the third failed inside it
			`cloud_checkpoint_phase_seconds_count{phase="commit"} 2`,
			`cloud_checkpoint_phase_seconds_count{phase="truncate"} 2`,
			// One clock reading apart: a phase's time is its own, not the run's.
			`cloud_checkpoint_phase_seconds_sum{phase="tail"} 0.002`,
			"cloud_checkpoint_failures_total 1",
			"cloud_checkpoint_segments 1",
			fmt.Sprintf("cloud_checkpoint_sealed_buckets_total %d", hourly+daily),
			fmt.Sprintf("cloud_checkpoint_bytes_written_total %d", s.ckptBytes.Load()),
		} {
			if !strings.Contains(exp+"\n", want+"\n") {
				t.Errorf("exposition lacks %q:\n%s", want, exp)
			}
		}
		o := s.ckptObs.Load()
		if got := testing.AllocsPerRun(100, func() { o.lap(phaseTail, o.now()) }); got != 0 {
			t.Errorf("timing a phase allocates %.1f times, want 0", got)
		}
		return exp
	}
	if a, b := run(), run(); a != b {
		t.Errorf("two identical runs scraped different checkpoint metrics:\n%s\nvs\n%s", a, b)
	}
	var unregistered *checkpointObs
	if got := testing.AllocsPerRun(100, func() { unregistered.lap(phaseTail, unregistered.now()) }); got != 0 {
		t.Errorf("timing on an unregistered store allocates %.1f times, want 0", got)
	}
}
