package tsdb

import (
	"errors"
	"fmt"
	"io"
	"os"
	"sync"
	"syscall"
	"testing"
	"time"

	"centuryscale/internal/lpwan"
)

// faults is the fault-injecting file layer under the log: real segment
// files behind the logFile seam, with a scripted failure per operation
// kind and a record of every call for the assertions that are about
// which descriptor saw what.
type faults struct {
	mu    sync.Mutex
	rules map[string]*faultRule
	files int
	ops   []fileOp
}

type faultRule struct {
	err   error
	left  int // calls still to fail; negative means until heal
	short int // write only: bytes that reach the file before the error
}

type fileOp struct {
	file   int
	op     string
	failed bool
}

// injectFaults puts a fault layer under db's log, wrapping the segment
// that Open already started.
func injectFaults(db *DB) *faults {
	fs := &faults{rules: make(map[string]*faultRule)}
	w := db.wal
	w.openFile = fs.open
	fs.files = 1
	w.f = &faultFile{fs: fs, f: w.f.(*os.File), id: 1}
	return fs
}

// fail makes the next times calls of op fail with err (times < 0: every
// call until heal). For "write", short bytes reach the file first.
func (fs *faults) fail(op string, err error, times, short int) {
	fs.mu.Lock()
	fs.rules[op] = &faultRule{err: err, left: times, short: short}
	fs.mu.Unlock()
}

func (fs *faults) heal() {
	fs.mu.Lock()
	fs.rules = make(map[string]*faultRule)
	fs.mu.Unlock()
}

// trip records one call and returns the injected failure, if any.
func (fs *faults) trip(file int, op string) *faultRule {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	r := fs.rules[op]
	if r != nil && r.left == 0 {
		r = nil
	}
	if r != nil && r.left > 0 {
		r.left--
	}
	fs.ops = append(fs.ops, fileOp{file: file, op: op, failed: r != nil})
	return r
}

func (fs *faults) open(path string) (logFile, error) {
	if r := fs.trip(0, "open"); r != nil {
		return nil, r.err
	}
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, err
	}
	fs.mu.Lock()
	fs.files++
	id := fs.files
	fs.mu.Unlock()
	return &faultFile{fs: fs, f: f, id: id}, nil
}

// opsOf returns the calls descriptor file saw, in order, as "op" or
// "op!" for an injected failure.
func (fs *faults) opsOf(file int) []string {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	var out []string
	for _, o := range fs.ops {
		if o.file == file {
			s := o.op
			if o.failed {
				s += "!"
			}
			out = append(out, s)
		}
	}
	return out
}

type faultFile struct {
	fs *faults
	f  *os.File
	id int
}

func (ff *faultFile) Write(p []byte) (int, error) {
	if r := ff.fs.trip(ff.id, "write"); r != nil {
		n := min(r.short, len(p))
		if _, err := ff.f.Write(p[:n]); err != nil {
			return 0, err
		}
		return n, r.err
	}
	return ff.f.Write(p)
}

func (ff *faultFile) Sync() error {
	if r := ff.fs.trip(ff.id, "sync"); r != nil {
		return r.err
	}
	return ff.f.Sync()
}

func (ff *faultFile) Truncate(size int64) error {
	if r := ff.fs.trip(ff.id, "truncate"); r != nil {
		return r.err
	}
	return ff.f.Truncate(size)
}

func (ff *faultFile) Close() error {
	cerr := ff.f.Close()
	if r := ff.fs.trip(ff.id, "close"); r != nil {
		return r.err
	}
	return cerr
}

// dedupBySeq is the replay filter cloud.ReplayWAL applies through its
// replay guard, reduced to its essence: the first record of a (device,
// seq) is kept, later copies — a checkpoint overlap, or bytes an
// abandoned segment kept before their re-write — are dropped.
func dedupBySeq() func(Point) bool {
	type key struct {
		dev lpwan.EUI64
		seq uint32
	}
	seen := make(map[key]bool)
	return func(p Point) bool {
		k := key{p.Device, p.Seq}
		if seen[k] {
			return false
		}
		seen[k] = true
		return true
	}
}

// TestFlushFaults is the C1/C3 table (DESIGN.md S40): under every way the
// log's file can fail, a failed flush acknowledges no one and loses
// nothing, new work is refused while the log is failed, a retry is
// acknowledged only by a flush that wrote its bytes again, and the
// directory replays every acknowledged record exactly once, in the order
// /history served it live.
func TestFlushFaults(t *testing.T) {
	eio := syscall.EIO
	frame := int64(frameHeader + pointPayload)
	cases := []struct {
		name         string
		segmentBytes int64
		arm          func(fs *faults, times int)
	}{
		{"failed write", 0, func(fs *faults, n int) { fs.fail("write", eio, n, 0) }},
		{"short write", 0, func(fs *faults, n int) { fs.fail("write", io.ErrShortWrite, n, 11) }},
		{"ENOSPC mid-frame", 0, func(fs *faults, n int) { fs.fail("write", syscall.ENOSPC, n, int(2*frame+5)) }},
		{"failed write, truncate fails too", 0, func(fs *faults, n int) {
			fs.fail("write", eio, n, 7)
			fs.fail("truncate", eio, n, 0)
		}},
		{"fsync fails once, then would succeed", 0, func(fs *faults, n int) { fs.fail("sync", eio, n, 0) }},
		// One-byte segments: every flush that writes anything rotates.
		{"rotation: next segment cannot be opened", 1, func(fs *faults, n int) { fs.fail("open", syscall.EMFILE, n, 0) }},
		{"rotation: close fails", 1, func(fs *faults, n int) { fs.fail("close", eio, n, 0) }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			db, err := Open(Options{Dir: dir, Shards: 4, Sync: SyncAlways, SegmentBytes: tc.segmentBytes})
			if err != nil {
				t.Fatal(err)
			}
			fs := injectFaults(db)
			w := db.wal
			acked := make(map[Point]bool)
			var seq uint32
			offer := func(devs ...uint64) []Point {
				seq++
				pts := make([]Point, len(devs))
				for i, d := range devs {
					pts[i] = pt(d, seq, time.Duration(seq)*time.Minute)
				}
				return pts
			}
			ack := func(pts []Point) {
				for _, p := range pts {
					acked[p] = true
				}
			}

			// A healthy frame first, so every fault lands on a log that
			// already holds acknowledged records.
			first := offer(1, 2, 3, 4, 5)
			if err := db.AppendBatch(first); err != nil {
				t.Fatal(err)
			}
			ack(first)

			// The fault fires once, under a single frame: its flush
			// fails, nothing it covers is acknowledged, and the retry —
			// which the fault no longer touches — may be.
			tc.arm(fs, 1)
			flushedBefore := w.flushed.Load()
			once := offer(1, 2, 3, 6)
			lsn := db.AppendDeferred(once)
			if err := db.Flush(lsn); err == nil {
				t.Fatal("flush over an injected fault returned nil")
			}
			if got := w.flushed.Load(); got != flushedBefore {
				t.Fatalf("failed flush moved the flushed LSN %d -> %d", flushedBefore, got)
			}
			if err := db.Health(); err == nil {
				t.Fatal("Health reports nothing while the log is failed")
			}
			if err := db.Flush(lsn); err != nil {
				t.Fatalf("retry after a one-off fault: %v", err)
			}
			if got := LSN(w.flushed.Load()); got < lsn {
				t.Fatalf("retry returned nil with flushed %d below the frame's LSN %d", got, lsn)
			}
			if err := db.Health(); err != nil {
				t.Fatalf("Health after a successful retry: %v", err)
			}
			ack(once)

			// The fault persists while several frames wait on the log at
			// once: every one of them is refused, whichever of them led
			// the flush and however many retried.
			tc.arm(fs, -1)
			flushedBefore = w.flushed.Load()
			frames := [][]Point{offer(1, 7), offer(2, 8, 9), offer(3), offer(4, 10, 11, 12)}
			errs := make([]error, len(frames))
			var wg sync.WaitGroup
			for i, f := range frames {
				wg.Add(1)
				go func(i int, f []Point) {
					defer wg.Done()
					errs[i] = db.Flush(db.AppendDeferred(f))
				}(i, f)
			}
			wg.Wait()
			for i, err := range errs {
				if err == nil {
					t.Errorf("frame %d was acknowledged while every flush was failing", i)
				}
			}
			if got := w.flushed.Load(); got != flushedBefore {
				t.Fatalf("failing flushes moved the flushed LSN %d -> %d", flushedBefore, got)
			}
			// A new frame asks before it admits anything, and is refused.
			if err := db.Flush(0); err == nil {
				t.Fatal("Flush(0) passed while the log was failed: a new frame would have been admitted")
			}
			if n := w.flushFails.Load(); n < 2 {
				t.Fatalf("flush failures counted = %d", n)
			}

			// The disk recovers; the senders retry. Their packets are
			// duplicates now, acknowledged by a flush that covers the log's
			// end — which must really have written the bytes put back.
			fs.heal()
			if err := db.Flush(db.LogEnd()); err != nil {
				t.Fatalf("flush after heal: %v", err)
			}
			if got, want := w.flushed.Load(), w.appended.Load(); got != want {
				t.Fatalf("flushed %d, appended %d after a successful flush", got, want)
			}
			for _, f := range frames {
				ack(f)
			}
			last := offer(5, 13)
			if err := db.AppendBatch(last); err != nil {
				t.Fatal(err)
			}
			ack(last)

			live := make(map[lpwan.EUI64][]Point)
			for _, dev := range db.Devices() {
				live[dev] = db.History(dev)
			}
			if err := db.Close(); err != nil {
				t.Fatal(err)
			}

			// No descriptor is written or fsynced again after one of its
			// fsyncs or its close failed: whatever a later call reported
			// could not be trusted.
			for id := 1; id <= fs.files; id++ {
				suspect := ""
				for _, op := range fs.opsOf(id) {
					if suspect != "" && (op == "write" || op == "sync") {
						t.Errorf("descriptor %d: %s after %s (ops %v)", id, op, suspect, fs.opsOf(id))
						break
					}
					if op == "sync!" || op == "close!" {
						suspect = op
					}
				}
			}

			re, err := Open(Options{Dir: dir, Shards: 4, Sync: SyncAlways})
			if err != nil {
				t.Fatal(err)
			}
			defer re.Close()
			if _, err := re.Replay(dedupBySeq()); err != nil {
				t.Fatal(err)
			}
			replayed := 0
			for _, dev := range re.Devices() {
				got := re.History(dev)
				replayed += len(got)
				if fmt.Sprint(got) != fmt.Sprint(live[dev]) {
					t.Errorf("device %v: replay\n  %v\nlive history was\n  %v", dev, got, live[dev])
				}
				for _, p := range got {
					if !acked[p] {
						t.Errorf("replay produced %+v, which was never offered", p)
					}
					delete(acked, p)
				}
			}
			for p := range acked {
				t.Errorf("acknowledged %+v is missing after replay", p)
			}
			if replayed == 0 {
				t.Fatal("nothing replayed")
			}
		})
	}
}

// TestFsyncFailureNeverRetriedOnSameDescriptor pins the one rule the
// table can only see from outside: after an fsync error the segment is
// abandoned, the bytes are written again into a fresh one, and the
// acknowledgement comes from that segment's own fsync.
func TestFsyncFailureNeverRetriedOnSameDescriptor(t *testing.T) {
	db := mustOpen(t, Options{Dir: t.TempDir(), Shards: 1, Sync: SyncAlways})
	fs := injectFaults(db)
	fs.fail("sync", syscall.EIO, 1, 0)
	if err := db.Append(pt(1, 1, time.Minute)); err == nil {
		t.Fatal("append over a failing fsync returned nil")
	}
	if err := db.Flush(db.LogEnd()); err != nil {
		t.Fatal(err)
	}
	if got, want := fmt.Sprint(fs.opsOf(1)), "[write sync! close]"; got != want {
		t.Errorf("failed descriptor saw %s, want %s", got, want)
	}
	if got, want := fmt.Sprint(fs.opsOf(2)), "[write sync]"; got != want {
		t.Errorf("fresh descriptor saw %s, want %s", got, want)
	}
	if n := db.wal.fsyncErrs.Load(); n != 1 {
		t.Errorf("fsync errors counted = %d", n)
	}
}

// TestFlushAfterCloseFails: a barrier on a closed engine must not report
// success for bytes nobody will write.
func TestFlushAfterCloseFails(t *testing.T) {
	db := mustOpen(t, Options{Dir: t.TempDir(), Shards: 1, Sync: SyncNever})
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	if err := db.Append(pt(1, 1, time.Minute)); !errors.Is(err, errClosed) {
		t.Fatalf("append after Close = %v, want errClosed", err)
	}
}
