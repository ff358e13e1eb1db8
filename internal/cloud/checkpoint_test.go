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
	"sync/atomic"
	"syscall"
	"testing"
	"time"

	"centuryscale/internal/batch"
	"centuryscale/internal/lpwan"
	"centuryscale/internal/obs"
	"centuryscale/internal/rollup"
	"centuryscale/internal/sim"
	"centuryscale/internal/telemetry"
	"centuryscale/internal/tsdb"
	"centuryscale/internal/vfs"
)

// faultFS is the fault injector under a rig's store, from boot: the
// vfs.FS that both the WAL and the checkpoint write through, backed by
// the real filesystem, with a log of every operation that reached it and
// one scripted failure. In "error" mode the chosen operation fails once
// and the process lives on; in "crash" mode it and everything after it
// never happen, which is what a power cut at that instant leaves on
// disk. With short set, a failing write first lets half its bytes
// through.
type faultFS struct {
	mu      sync.Mutex
	ops     []string
	failAt  int    // index into ops of the operation to fail; -1 for none
	failOn  string // or the first operation whose name begins with this
	crash   bool
	short   bool
	crashed bool
}

// diskOf returns the fault injector a rig opened s's DB with.
func diskOf(s *Store) *faultFS { return s.DB().FS().(*faultFS) }

// script clears the log and sets the failure to come: the failAt'th
// operation from now (-1: none), or the first named failOn ("": none).
// script(-1, "", false, false) heals the disk and records what follows.
func (fs *faultFS) script(failAt int, failOn string, crash, short bool) {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	fs.ops, fs.failAt, fs.failOn, fs.crash, fs.short, fs.crashed = nil, failAt, failOn, crash, short, false
}

// recorded returns the operations logged since the last script.
func (fs *faultFS) recorded() []string {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	return append([]string(nil), fs.ops...)
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
	if i != fs.failAt && (fs.failOn == "" || !strings.HasPrefix(op, fs.failOn)) {
		return false, nil
	}
	fs.failOn = ""
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
	return vfs.OS{}.Mkdir(dir)
}

func (fs *faultFS) Rename(from, to string) error {
	if err := fs.step("rename " + filepath.Base(to)); err != nil {
		return err
	}
	return vfs.OS{}.Rename(from, to)
}

func (fs *faultFS) Remove(path string) error {
	if err := fs.step("remove " + filepath.Base(path)); err != nil {
		return err
	}
	return vfs.OS{}.Remove(path)
}

func (fs *faultFS) SyncDir(dir string) error {
	if err := fs.step("syncdir " + filepath.Base(dir)); err != nil {
		return err
	}
	return vfs.OS{}.SyncDir(dir)
}

func (fs *faultFS) OpenAppend(path string) (vfs.File, error) {
	if err := fs.step("open " + filepath.Base(path)); err != nil {
		return nil, err
	}
	f, err := vfs.OS{}.OpenAppend(path)
	if err != nil {
		return nil, err
	}
	return &faultFile{fs: fs, f: f, name: filepath.Base(path)}, nil
}

type faultFile struct {
	fs   *faultFS
	f    vfs.File
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

// open starts a store on the rig's WAL without loading anything, on a
// fresh fault injector (diskOf) that fails nothing until scripted.
func (r *archiveRig) open() *Store {
	r.t.Helper()
	db, err := tsdb.Open(tsdb.Options{Dir: filepath.Join(r.dir, "tsdb"), Shards: 4, Sync: tsdb.SyncNever, FS: &faultFS{failAt: -1}})
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
		daily bool
		start time.Duration
	}
	seen := map[key]bool{}
	geometry := rollup.Config{Hourly: time.Duration(m.Rollups.HourlyNanos), Daily: time.Duration(m.Rollups.DailyNanos)}
	for _, f := range m.Sealed {
		err := readDataFile(snap+".d", f, sealedPrefix, func(r io.Reader) error {
			return decodeSealed(r, geometry, func(dev lpwan.EUI64, tier byte, bs []rollup.Bucket) {
				for _, b := range bs {
					k := key{dev, dailyTier(tier), b.Start}
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

// caseNames names the subtest of each recorded operation: a save
// operation by its place among the save's own ("00 mkdir ..."), a WAL
// operation by itself ("close wal-00000001.log"), so that a save
// operation's case keeps its name whatever the WAL does around it.
func caseNames(ops []string) []string {
	names := make([]string, len(ops))
	n := 0
	for i, op := range ops {
		if strings.Contains(op, " wal-") {
			names[i] = op
			continue
		}
		names[i] = fmt.Sprintf("%02d %s", n, op)
		n++
	}
	return names
}

// TestCheckpointCrashPoints is K1 and K2, operation by operation. A
// control run records every operation one checkpoint sends through the
// disk seam — the WAL's rotation, the save and the WAL's truncation, as
// one sequence; once for the first checkpoint of an archive (a full
// base), once for a later one (a delta) — and then each operation in
// turn is made to fail (ENOSPC, the process lives) or to be the last
// thing that happened (a crash), with short writes tried on every write. Whatever is then on
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
		diskOf(control).script(-1, "", false, false)
		if err := control.Checkpoint(cr.snap); err != nil {
			t.Fatal(err)
		}
		post := exportOf(t, control)
		if bytes.Equal(pre, post) {
			t.Fatal("the checkpoint under test folded nothing: pre and post states are the same")
		}
		ops := diskOf(control).recorded()
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
		for _, walOp := range []string{"close wal-", "open wal-", "remove wal-"} {
			if !strings.Contains(strings.Join(ops, ","), walOp) {
				t.Errorf("%s checkpoint never issued a %s...: the enumeration does not cover the WAL's rotation and truncation", which, walOp)
			}
		}
		control.Close()

		names := caseNames(ops)
		for i, op := range ops {
			for _, mode := range []string{"error", "crash", "short-error", "short-crash"} {
				if strings.HasPrefix(mode, "short") && !strings.HasPrefix(op, "write ") {
					continue
				}
				t.Run(which+"/"+names[i]+"/"+mode, func(t *testing.T) {
					r, s := prepare(t)
					srv := NewServer(s, time.Now())
					walBefore := r.walSegments()
					diskOf(s).script(i, "", strings.HasSuffix(mode, "crash"), strings.HasPrefix(mode, "short"))
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
					diskOf(s).script(-1, "", false, false)
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
	diskOf(control).script(-1, "", false, false)
	if err := control.Checkpoint(cr.snap); err != nil {
		t.Fatal(err)
	}
	want := exportOf(t, control)

	ops := diskOf(control).recorded()
	names := caseNames(ops)
	for i := range ops {
		t.Run(names[i], func(t *testing.T) {
			r := newRig(t)
			s := r.boot()
			feedDays(t, s, 0, 4)
			if err := s.Checkpoint(r.snap); err != nil {
				t.Fatal(err)
			}
			feedDays(t, s, 4, 7)
			diskOf(s).script(i, "", true, true)
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
	var lastSealed int64
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
		var sealedBytes int64
		for _, f := range readManifest(t, r.snap).Sealed {
			sealedBytes += f.Bytes
		}
		if day >= 4 {
			// Steady state: two days of new buckets, in compact frames —
			// 39 bytes a bucket of this traffic, where a fixed frame's
			// are 60 — and one raw window.
			db, dby, dsealed := s.ckptBuckets.Load()-lastBuckets, s.ckptBytes.Load()-lastBytes, sealedBytes-lastSealed
			if db > 200 || dsealed > 200*40 || dby > 200*40+4*72*3*tsdb.RecordSize {
				t.Fatalf("day %d: checkpoint wrote %d buckets, %d bytes, %d of them sealed: not a delta of compact frames", day, db, dby, dsealed)
			}
		}
		lastBuckets, lastBytes, lastSealed = s.ckptBuckets.Load(), s.ckptBytes.Load(), sealedBytes
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
// TestDevicesOutliveTheirRawWindow: a device that reports once and then
// falls silent past the raw window stays in /devices and in /status's
// count after a checkpoint folds its only reading away — live, after a
// reboot from manifest plus WAL, and after a reload of the JSON export
// (K3). Its one reading carries sequence number 0, so the reboots must
// give it a record from a bucket MaxSeq of 0.
func TestDevicesOutliveTheirRawWindow(t *testing.T) {
	const quiet, chatty = 0xD1, 0xD2
	r := newRig(t)
	live := r.boot()
	defer live.Close()
	if err := live.Ingest(time.Hour, sealed(t, quiet, 0, 1)); err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= 72; i++ {
		if err := live.Ingest(time.Duration(i)*time.Hour, sealed(t, chatty, uint32(i), 2)); err != nil {
			t.Fatal(err)
		}
	}
	if err := live.CheckpointAt(r.snap, live.HighWater()); err != nil {
		t.Fatal(err)
	}
	if n := len(live.History(lpwan.EUIFromUint64(quiet))); n != 0 {
		t.Fatalf("the checkpoint left %d raw readings of the silent device", n)
	}
	// One more reading after the checkpoint, so the reboot replays a WAL.
	if err := live.Ingest(73*time.Hour, sealed(t, chatty, 73, 2)); err != nil {
		t.Fatal(err)
	}

	want := fmt.Sprintf("[%q,%q]\n", lpwan.EUIFromUint64(quiet), lpwan.EUIFromUint64(chatty))
	check := func(name string, s *Store) {
		t.Helper()
		srv := NewServer(s, time.Now())
		get := func(u string) string {
			w := httptest.NewRecorder()
			srv.ServeHTTP(w, httptest.NewRequest("GET", u, nil))
			if w.Code != 200 {
				t.Fatalf("%s: GET %s: %d %s", name, u, w.Code, w.Body.String())
			}
			return w.Body.String()
		}
		if got := get("/devices"); got != want {
			t.Errorf("%s: /devices = %s, want %s", name, got, want)
		}
		var st statusPayload
		if err := json.Unmarshal([]byte(get("/status")), &st); err != nil {
			t.Fatal(err)
		}
		if st.Devices != 2 {
			t.Errorf("%s: /status devices = %d, want 2", name, st.Devices)
		}
	}
	check("live", live)
	rebooted := r.boot()
	defer rebooted.Close()
	check("rebooted from manifest and WAL", rebooted)
	fromJSON := NewStore(StaticKeys(master))
	if err := fromJSON.EnableRollups(rollup.Config{}, rigRetain); err != nil {
		t.Fatal(err)
	}
	if err := fromJSON.ReadSnapshot(bytes.NewReader(exportOf(t, live))); err != nil {
		t.Fatal(err)
	}
	check("reloaded from the JSON export", fromJSON)
}

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
			os.WriteFile(r.snap, bytes.Replace(pristine[r.snap], []byte(fmt.Sprintf(`{"version":%d,`, manifestVersion)), []byte(fmt.Sprintf(`{"version":%d,`, manifestVersion+1)), 1), 0o644)
		}, []string{fmt.Sprintf("format version %d", manifestVersion+1), fmt.Sprintf("reads 1-%d", manifestVersion)}},
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
// but its WAL, 17 + 21k bytes per run of k points. A frame's packets
// share one arrival, so each storage shard it touches logs one run
// (split at 194 points); a lone packet is a run of one, 38 bytes.
func TestFrameWorkloadDirectoryUnchanged(t *testing.T) {
	r := newRig(t)
	s := r.boot()
	singles := feedDays(t, s, 0, 2)
	const frames, perFrame = 8, 256
	for f := 0; f < frames; f++ {
		wires := make([][]byte, perFrame)
		for i := range wires {
			wires[i] = sealed(t, uint64(0xD000+i), uint32(f+1), float32(i%23))
		}
		res, err := s.IngestBatch(3*24*time.Hour+time.Duration(f)*time.Minute, frameOf(t, wires...))
		if err != nil || res.Accepted != perFrame {
			t.Fatalf("frame %d: %+v, %v", f, res, err)
		}
	}
	// Each frame spreads over all four of the rig's shards, at most 194
	// packets on any: four runs.
	const want = 432*38 + frames*(4*17+perFrame*21)
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
	if total != want || singles != 432 || tsdb.RecordSize != 38 {
		t.Fatalf("%d bytes on disk for %d single packets and %d frames of %d, want exactly %d", total, singles, frames, perFrame, want)
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
	// Rounds go on past the last until a checkpoint has folded: with few
	// cores free the checkpointer may not have run while the first ones
	// did.
	for round := 0; round < rounds || s.Rollups().FoldedBefore() == 0 || s.ckptSegments.Load() == 0; round++ {
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

// TestWeeksLedgerExact is F5 for the weeks ledger. Single packets,
// frames and Repair run at once over devices in every guard shard, their
// arrivals stepping a week every few operations, while checkpoints are
// cut.
// Every manifest committed must list the week of every reading and bucket
// its files hold, and WeeklyUptime must equal the weeks the operations
// that were acknowledged arrived in — live, and after a reboot from the
// last manifest and the WAL. A ledger copied apart from the series lets a
// reading admitted between the two copies into a checkpoint without its
// week, and the reboot's replay, finding the reading held, never brings
// the week back.
func TestWeeksLedgerExact(t *testing.T) {
	const (
		perKind     = 16  // devices per kind of operation
		ops         = 150 // per kind at least, and on until checkpoints have been cut
		checkpoints = 12
		perWeek     = 8             // operations, of any kind, that arrive in one week
		maxWeeks    = 5000          // arrivals stay well inside time.Duration's 292 years
		retain      = 16 * sim.Week // raw window: stale refusals stay rare
	)
	r := newRig(t)
	boot := func() *Store {
		db, err := tsdb.Open(tsdb.Options{Dir: filepath.Join(r.dir, "tsdb"), Shards: 4, Sync: tsdb.SyncNever})
		if err != nil {
			t.Fatal(err)
		}
		s := NewStoreWithDB(StaticKeys(master), db)
		if err := s.EnableRollups(rollup.Config{}, retain); err != nil {
			t.Fatal(err)
		}
		if err := s.LoadFile(r.snap); err != nil {
			t.Fatal(err)
		}
		if _, err := s.ReplayWAL(); err != nil {
			t.Fatal(err)
		}
		return s
	}
	s := boot()
	kinds := []string{"single", "frame", "repair"}
	devOf := func(kind, i int) uint64 { return uint64(0x1000*(kind+1) + i) }
	for k, name := range kinds {
		shards := make(map[int]bool)
		for i := 0; i < perKind; i++ {
			shards[tsdb.ShardIndex(lpwan.EUIFromUint64(devOf(k, i)), len(s.guards))] = true
		}
		if len(shards) != len(s.guards) {
			t.Fatalf("%s devices reach %d of %d guard shards", name, len(shards), len(s.guards))
		}
	}

	// heldWeeks fails unless the manifest at r.snap lists the week of every
	// reading and bucket its files hold.
	heldWeeks := func() {
		m := readManifest(t, r.snap)
		listed := make(map[int64]bool, len(m.Weeks))
		for _, w := range m.Weeks {
			listed[w] = true
		}
		held := NewStore(StaticKeys(master))
		if err := held.EnableRollups(rollup.Config{}, retain); err != nil {
			t.Error(err)
			return
		}
		if err := held.LoadFile(r.snap); err != nil {
			t.Error(err)
			return
		}
		var at []time.Duration
		for _, dev := range held.Devices() {
			for _, rd := range held.History(dev) {
				at = append(at, rd.At)
			}
		}
		for _, ds := range held.Rollups().Snapshot().Devices {
			for _, tier := range [][]rollup.Bucket{ds.Hourly, ds.Daily} {
				for _, b := range tier {
					at = append(at, b.First, b.Last)
				}
			}
		}
		for _, a := range at {
			if !listed[int64(a/sim.Week)] {
				t.Errorf("a manifest holds a reading at %v, in week %d, and does not list that week (it lists %d)", a, a/sim.Week, len(m.Weeks))
				return
			}
		}
	}

	var next atomic.Int64 // operations started, of every kind
	var mu sync.Mutex
	acknowledged := make(map[int64]bool)
	done := func(week int64, accepted int) {
		if accepted > 0 {
			mu.Lock()
			acknowledged[week] = true
			mu.Unlock()
		}
	}
	stop := make(chan struct{})
	var cut atomic.Int32
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
			cut.Add(1)
			heldWeeks()
		}
	}()
	var wg sync.WaitGroup
	for k := range kinds {
		wg.Add(1)
		go func(k int) {
			defer wg.Done()
			seq := make([]uint32, perKind)
			for op := 0; op < ops || cut.Load() < checkpoints && !t.Failed(); op++ {
				week := (next.Add(1) - 1) / perWeek
				if week >= maxWeeks {
					return
				}
				at := time.Duration(week)*sim.Week + time.Duration(op%7)*sim.Day
				switch k {
				case 0:
					i := op % perKind
					seq[i]++
					err := s.Ingest(at, sealed(t, devOf(k, i), seq[i], 1))
					if err != nil && !errors.Is(err, ErrSealed) {
						t.Errorf("packet: %v", err)
						return
					}
					if err == nil {
						done(week, 1)
					}
				case 1:
					var wires [][]byte
					for j := 0; j < 4; j++ {
						i := (op + j) % perKind
						seq[i]++
						wires = append(wires, sealed(t, devOf(k, i), seq[i], 2))
					}
					frame, err := batch.AppendFrame(nil, wires...)
					if err != nil {
						t.Error(err)
						return
					}
					res, err := s.IngestBatch(at, frame)
					if err != nil {
						t.Errorf("frame: %v", err)
						return
					}
					done(week, res.Accepted)
				case 2:
					i := op % perKind
					dev := lpwan.EUIFromUint64(devOf(k, i))
					var recs []Reading
					for j := 0; j < 2; j++ {
						seq[i]++
						recs = append(recs, Reading{At: at, Packet: telemetry.Packet{Device: dev, Seq: seq[i], Value: 3}})
					}
					added, err := s.Repair(dev, recs)
					if err != nil {
						t.Errorf("repair: %v", err)
						return
					}
					done(week, added)
				}
			}
		}(k)
	}
	wg.Wait()
	close(stop)
	bg.Wait()
	if t.Failed() {
		return
	}
	if s.Rollups().FoldedBefore() == 0 {
		t.Fatal("no checkpoint folded while the writers ran: the race under test never happened")
	}
	weeks := min(next.Load()/perWeek+1, maxWeeks)
	t.Logf("%d checkpoints over %d weeks, %d of them acknowledged", cut.Load(), weeks, len(acknowledged))
	horizon := time.Duration(weeks) * sim.Week
	want := float64(len(acknowledged)) / float64(weeks)
	if got := s.WeeklyUptime(horizon); got != want {
		t.Fatalf("live WeeklyUptime %v, the acknowledged operations arrived in %d of %d weeks (%v)", got, len(acknowledged), weeks, want)
	}
	// s is abandoned here: no Close, no final checkpoint.
	b := boot()
	defer b.Close()
	if got := b.WeeklyUptime(horizon); got != want {
		t.Fatalf("after the crash WeeklyUptime is %v, the acknowledged operations arrived in %d of %d weeks (%v)", got, len(acknowledged), weeks, want)
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
// same answers. Either format is read at the geometry it records: a
// store with no retention window, and one configured at another
// geometry, load it to the same export and the same answers.
// testdata/archive-v3 is a version-3 archive as the
// last build before compact frames wrote it, with the export that build
// made of it; see testArchiveV3.
func TestOldSnapshotsLoadForever(t *testing.T) {
	const fixtureRetain = 36 * time.Hour
	t.Run("archive-v3", func(t *testing.T) { testArchiveV3(t, fixtureRetain) })
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
				// Replay protection seeded from the buckets' MaxSeq.
				refusesFoldedReplay := func(name string, s *Store) {
					dev := s.Rollups().Devices()[0]
					seq := s.Rollups().MaxSeq(dev)
					if err := s.Ingest(s.HighWater()+time.Minute, sealed(t, dev.Uint64(), seq, 1)); err == nil {
						t.Errorf("%s: replay of a folded packet admitted", name)
					}
				}
				sameAnswers(t, reborn, direct)
				refusesFoldedReplay("after the v3 round trip", reborn)
				// Both formats at this path, into stores set up otherwise.
				jsonPath := filepath.Join(t.TempDir(), "store.json")
				if err := os.WriteFile(jsonPath, fixture, 0o644); err != nil {
					t.Fatal(err)
				}
				for name, snap := range map[string]string{"json": jsonPath, "manifest": snap} {
					bare := NewStore(StaticKeys(master))
					wrong := NewStore(StaticKeys(master))
					if err := wrong.EnableRollups(rollup.Config{Hourly: 2 * time.Hour, Daily: 48 * time.Hour}, fixtureRetain); err != nil {
						t.Fatal(err)
					}
					for kind, s := range map[string]*Store{"with no retention window": bare, "at another tier geometry": wrong} {
						if err := s.LoadFile(snap); err != nil {
							t.Fatalf("%s into a store %s: %v", name, kind, err)
						}
						if got, want := s.Rollups().Config(), direct.Rollups().Config(); got != want {
							t.Errorf("%s into a store %s: geometry %+v, want the archive's %+v", name, kind, got, want)
						}
						if got := exportOf(t, s); !bytes.Equal(got, want) {
							t.Errorf("%s into a store %s: export differs from the fixture", name, kind)
						}
						sameAnswers(t, s, direct)
						refusesFoldedReplay(name+" into a store "+kind, s)
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
		diskOf(s).script(-1, "write tail-", false, false) // nothing new to seal, so the tail is the first file written
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

// testArchiveV3: the version-3 archive (three devices, fifteen days: one
// reporting on the hour, one every 20 minutes, one every 3 hours with a
// three-day silence; checkpointed every fifth day, rollups at the default
// geometry) loads and exports byte for byte what the build that wrote it
// exported. Its next checkpoint appends compact frames to the same
// segment, after the fixed frames it leaves untouched, under a version-4
// manifest; a reboot from that mixed segment gives the same export and
// the same answers as the store that wrote it.
func testArchiveV3(t *testing.T, retain time.Duration) {
	src := filepath.Join("testdata", "archive-v3")
	want, err := os.ReadFile(filepath.Join(src, "export.json"))
	if err != nil {
		t.Fatal(err)
	}
	snap := filepath.Join(t.TempDir(), "snapshot.json")
	files, err := filepath.Glob(filepath.Join(src, "snapshot.json*", "*"))
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Mkdir(snap+".d", 0o755); err != nil {
		t.Fatal(err)
	}
	var oldSegment []byte
	for _, f := range append(files, filepath.Join(src, "snapshot.json")) {
		b, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		rel, _ := filepath.Rel(src, f) // f lies under src
		if err := os.WriteFile(filepath.Join(filepath.Dir(snap), rel), b, 0o644); err != nil {
			t.Fatal(err)
		}
		if strings.HasPrefix(filepath.Base(f), sealedPrefix) {
			oldSegment = b
		}
	}
	open := func() *Store {
		s := NewStore(StaticKeys(master))
		if err := s.EnableRollups(rollup.Config{}, retain); err != nil {
			t.Fatal(err)
		}
		return s
	}

	live := open()
	if err := live.LoadFile(snap); err != nil {
		t.Fatalf("loading the fixture: %v", err)
	}
	if li := live.LastLoad(); li.Version != 3 || li.Segments != 1 || li.Buckets == 0 {
		t.Fatalf("LastLoad = %+v, want one version-3 segment", li)
	}
	if got := exportOf(t, live); !bytes.Equal(got, want) {
		t.Fatal("export after loading the version-3 archive differs from the export its build made")
	}

	// Three more days from the same devices, so the next checkpoint seals.
	from := live.HighWater()
	for h := 1; h <= 72; h++ {
		for i, dev := range []uint64{0xA1, 0xA2, 0xA3} {
			at := from + time.Duration(h)*time.Hour + time.Duration(i*7)*time.Minute
			if err := live.Ingest(at, sealed(t, dev, uint32(100000+h), float32(h%9)-2)); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := live.Checkpoint(snap); err != nil {
		t.Fatal(err)
	}
	m := readManifest(t, snap)
	if m.Version != manifestVersion || len(m.Sealed) != 1 || m.Sealed[0].Bytes <= int64(len(oldSegment)) {
		t.Fatalf("after a checkpoint: version %d, sealed %+v; want version %d, the one segment grown past %d bytes", m.Version, m.Sealed, manifestVersion, len(oldSegment))
	}
	seg, err := os.ReadFile(filepath.Join(snap+".d", m.Sealed[0].Name))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.HasPrefix(seg, oldSegment) {
		t.Fatal("the checkpoint rewrote the version-3 segment's frames instead of appending after them")
	}
	sealedOnce(t, snap)
	var tiers []byte
	if err := decodeSealed(bytes.NewReader(seg), fuzzGeometry, func(_ lpwan.EUI64, tier byte, _ []rollup.Bucket) { tiers = append(tiers, tier) }); err != nil {
		t.Fatal(err)
	}
	if fixed := bytes.IndexAny(tiers, "\x03\x04"); fixed <= 0 || bytes.ContainsAny(tiers[fixed:], "\x01\x02") {
		t.Fatalf("frame tiers in file order %v: want fixed frames, then compact ones", tiers)
	}
	onlyNamedFiles(t, snap)

	reborn := open()
	if err := reborn.LoadFile(snap); err != nil {
		t.Fatalf("loading the mixed segment: %v", err)
	}
	if li := reborn.LastLoad(); li.Version != manifestVersion {
		t.Fatalf("LastLoad = %+v", li)
	}
	if got := exportOf(t, reborn); !bytes.Equal(got, exportOf(t, live)) {
		t.Fatal("export after a reboot from the mixed segment differs from the live store's")
	}
	sameAnswers(t, reborn, live)
}

// TestArchiveGauges: cloud_archive_bytes and cloud_archive_buckets read
// the manifest in force — what it names, to its recorded lengths, and
// every bucket in those segments — after each checkpoint, after a failed
// one (which changes nothing), and after a reboot, which has no
// checkpoint of its own to count from.
func TestArchiveGauges(t *testing.T) {
	r := newRig(t)
	scrape := func(s *Store) string {
		reg := obs.NewRegistry()
		s.RegisterMetrics(reg, nil)
		var lines []string
		for _, line := range strings.Split(string(reg.Exposition()), "\n") {
			if strings.HasPrefix(line, "cloud_archive_") {
				lines = append(lines, line)
			}
		}
		return strings.Join(lines, "\n")
	}
	fromManifest := func(s *Store) string {
		m := readManifest(t, r.snap)
		var sealed int64
		for _, f := range m.Sealed {
			sealed += f.Bytes
		}
		hourly, daily := s.Rollups().Buckets()
		return fmt.Sprintf("cloud_archive_buckets %d\ncloud_archive_bytes{kind=\"sealed\"} %d\ncloud_archive_bytes{kind=\"tail\"} %d", hourly+daily, sealed, m.Tail.Bytes)
	}
	s := r.boot()
	defer s.Close()
	if got, want := scrape(s), "cloud_archive_buckets 0\ncloud_archive_bytes{kind=\"sealed\"} 0\ncloud_archive_bytes{kind=\"tail\"} 0"; got != want {
		t.Fatalf("before any checkpoint:\n%s\nwant\n%s", got, want)
	}
	for day := 0; day < 6; day += 3 {
		feedDays(t, s, day, day+3)
		if err := s.Checkpoint(r.snap); err != nil {
			t.Fatal(err)
		}
		if got, want := scrape(s), fromManifest(s); got != want {
			t.Fatalf("day %d:\n%s\nwant\n%s", day, got, want)
		}
	}
	want := scrape(s)
	feedDays(t, s, 6, 7)
	diskOf(s).script(-1, "open sealed-", false, false)
	if err := s.Checkpoint(r.snap); err == nil {
		t.Fatal("injected fault did not fail the checkpoint")
	}
	if got := scrape(s); got != want {
		t.Fatalf("a failed checkpoint moved the gauges:\n%s\nwant\n%s", got, want)
	}
	b := r.boot()
	defer b.Close()
	if got := scrape(b); got != want {
		t.Fatalf("after a reboot:\n%s\nwant\n%s", got, want)
	}
}
