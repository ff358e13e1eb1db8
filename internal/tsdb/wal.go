package tsdb

import (
	"bufio"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"centuryscale/internal/obs"
)

// SyncPolicy controls when WAL appends are fsynced.
type SyncPolicy int

const (
	// SyncAlways fsyncs before every acknowledgement: an acknowledged
	// reading is on stable storage. The durable default.
	SyncAlways SyncPolicy = iota
	// SyncInterval leaves fsync to a background ticker (Options.SyncEvery):
	// an acknowledged reading has reached the kernel (it survives the
	// process), and a host crash can lose at most one interval of them.
	SyncInterval
	// SyncNever issues no fsyncs at all; durability is whatever the OS
	// page cache provides. For benchmarks and throwaway simulations.
	SyncNever
)

// ParseSyncPolicy maps the -wal-fsync flag values.
func ParseSyncPolicy(s string) (SyncPolicy, error) {
	switch strings.ToLower(s) {
	case "always":
		return SyncAlways, nil
	case "interval":
		return SyncInterval, nil
	case "never":
		return SyncNever, nil
	}
	return 0, fmt.Errorf("tsdb: unknown fsync policy %q (want always, interval, or never)", s)
}

func (p SyncPolicy) String() string {
	switch p {
	case SyncAlways:
		return "always"
	case SyncInterval:
		return "interval"
	case SyncNever:
		return "never"
	}
	return fmt.Sprintf("syncpolicy(%d)", int(p))
}

const segPrefix = "wal-"
const segSuffix = ".log"

func segName(idx uint64) string {
	return fmt.Sprintf("%s%08d%s", segPrefix, idx, segSuffix)
}

func parseSegName(name string) (uint64, bool) {
	if !strings.HasPrefix(name, segPrefix) || !strings.HasSuffix(name, segSuffix) {
		return 0, false
	}
	idx, err := strconv.ParseUint(strings.TrimSuffix(strings.TrimPrefix(name, segPrefix), segSuffix), 10, 64)
	return idx, err == nil
}

// LSN is a position in the log: the count of record bytes appended up to
// and including a record. A record is acknowledgeable once the log's
// flush has passed its LSN (DB.Flush).
type LSN uint64

// logFile is what the log needs of a segment file. Production uses
// *os.File; only tests substitute a fault injector.
type logFile interface {
	Write(p []byte) (int, error)
	Sync() error
	Truncate(size int64) error
	Close() error
}

func openSegment(path string) (logFile, error) {
	return os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
}

// wal is the one log under every shard, in two parts (DESIGN.md S40).
//
// The log buffer: appenders on any shard copy encoded records into buf
// under mu and get back an LSN. mu covers memory only and is never held
// across a syscall — it is the one lock all shards share on the ingest
// path.
//
// The flusher role: held by one goroutine at a time (flushing, handed
// over on cond). The holder swaps the buffer out, writes it with one
// write(2), fsyncs per policy, rotates, and publishes the flushed LSN.
// The fields under "flusher-role state" belong to the holder and need
// no other lock.
type wal struct {
	dir          string
	segmentBytes int64
	policy       SyncPolicy
	openFile     func(path string) (logFile, error) // tests inject faults here
	clock        obs.Clock                          // flush-time histogram clock; nil is wall time, tests inject theirs

	mu       sync.Mutex
	cond     *sync.Cond // on mu: the flusher role changed hands
	buf      []byte     // records appended and not yet drained by a flusher
	spare    []byte     // the drained buffer of the last flush, for reuse
	flushing bool       // the flusher role is taken
	closed   bool

	// appended and flushed are the published LSNs: bytes handed to
	// append, and bytes a successful flush covered — written and, under
	// SyncAlways, fsynced (every flush fsyncs under that policy). failed
	// is the failed state: the last flush's error, nil when healthy. All
	// three are stored under mu and read lock-free by the fast path of
	// flush, the gauges and Health.
	appended atomic.Uint64
	flushed  atomic.Uint64
	failed   atomic.Pointer[error]

	// flusher-role state
	f      logFile // active segment; nil after a segment was abandoned
	idx    uint64  // active segment index
	size   int64   // bytes written to the active segment
	synced int64   // bytes of the active segment a successful fsync covered

	flushes    atomic.Uint64 // successful flushes that wrote at least one record
	flushFails atomic.Uint64 // stored under mu; a waiter that sees it move fails too
	fsyncs     atomic.Uint64
	fsyncErrs  atomic.Uint64
	seconds    atomic.Pointer[obs.Histogram] // installed by RegisterMetrics

	// existing lists the segment indices found at open time, i.e. the
	// replay set. The active segment is always newer than all of them.
	existing []uint64
}

// openWAL opens (creating if needed) the log directory and starts a
// fresh active segment above every existing one. Appends never reuse an
// old segment, so replay and recovery never race a writer.
func openWAL(dir string, segmentBytes int64, policy SyncPolicy) (*wal, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("tsdb: wal dir: %w", err)
	}
	existing, err := listSegments(dir)
	if err != nil {
		return nil, err
	}
	w := &wal{dir: dir, segmentBytes: segmentBytes, policy: policy, openFile: openSegment, existing: existing}
	w.cond = sync.NewCond(&w.mu)
	w.idx = 1
	if n := len(existing); n > 0 {
		w.idx = existing[n-1] + 1
	}
	if err := w.openActive(); err != nil {
		return nil, err
	}
	return w, nil
}

func (w *wal) openActive() error {
	f, err := w.openFile(filepath.Join(w.dir, segName(w.idx)))
	if err != nil {
		return fmt.Errorf("tsdb: wal segment: %w", err)
	}
	w.f, w.size, w.synced = f, 0, 0
	return nil
}

// append copies already-framed records into the log buffer and returns
// the LSN that covers them. It cannot fail and does no I/O: the records
// may be acknowledged once a flush has passed the LSN.
func (w *wal) append(frames []byte) LSN {
	w.mu.Lock()
	w.buf = append(w.buf, frames...)
	lsn := w.appended.Add(uint64(len(frames)))
	w.mu.Unlock()
	return LSN(lsn)
}

var errClosed = errors.New("tsdb: wal closed")

// flush returns nil once every record at or below lsn is written and,
// under SyncAlways, fsynced. A caller already covered returns without
// I/O; one that finds a flush running waits for it; otherwise the caller
// takes the flusher role and flushes everything appended so far.
//
// A failed flush loses nothing and acknowledges nothing: its bytes go
// back to the head of the buffer, the flushed LSN stays put, and every
// goroutine waiting on it gets the error. While the log is failed, every
// flush — whatever its lsn — retries first, so nothing is acknowledged
// until a retry has succeeded.
func (w *wal) flush(lsn LSN) error {
	if w.failed.Load() == nil && lsn <= LSN(w.flushed.Load()) {
		return nil
	}
	_, err := w.lead(lsn, w.policy == SyncAlways, thenKeep)
	return err
}

// sync flushes everything appended so far and fsyncs it regardless of
// policy: the interval ticker's and DB.Sync's entry point.
func (w *wal) sync() error {
	_, err := w.lead(ownFlush, true, thenKeep)
	return err
}

// rotate flushes everything appended so far, seals the active segment
// and starts the next one, whose index it returns: every record appended
// before the call lies in a segment below it.
func (w *wal) rotate() (uint64, error) {
	return w.lead(ownFlush, w.policy != SyncNever, thenSeal)
}

// close flushes what is buffered, fsyncs unless the policy is never, and
// closes the active segment. Later flushes fail.
func (w *wal) close() error {
	_, err := w.lead(ownFlush, w.policy != SyncNever, thenShut)
	if w.f != nil {
		// The final flush failed short of closing. Nobody can take the
		// role any more, so the descriptor is ours to release.
		_ = w.f.Close() // the flush's own error is the one to report
		w.f = nil
	}
	return err
}

// ownFlush is the lsn of a caller that no flush but its own satisfies:
// it is after the flusher role itself, to fsync, rotate or shut down.
const ownFlush = ^LSN(0)

// after says what the flusher does with the active segment once the
// buffer is written.
type after int

const (
	thenKeep after = iota // keep appending to it unless it is full
	thenSeal              // seal it and start the next one
	thenShut              // close it: the log is shutting down
)

// lead is the flush protocol: wait out the flush in progress, return if
// it covered lsn (or failed trying), else take the flusher role, drain
// the buffer, do the I/O with no lock held, and publish the outcome. It
// returns the index of the active segment as its flush left it.
func (w *wal) lead(lsn LSN, fsync bool, then after) (uint64, error) {
	w.mu.Lock()
	seen := w.flushFails.Load()
	for w.flushing {
		w.cond.Wait()
		failed := w.failed.Load()
		switch {
		case lsn == ownFlush:
			// after the role itself: nobody else's flush will do
		case failed != nil && w.flushFails.Load() != seen:
			w.mu.Unlock()
			return 0, *failed
		case failed == nil && lsn <= LSN(w.flushed.Load()):
			w.mu.Unlock()
			return 0, nil
		}
	}
	if w.closed {
		w.mu.Unlock()
		return 0, errClosed
	}
	w.closed = then == thenShut
	w.flushing = true
	chunk := w.buf
	w.buf, w.spare = w.spare[:0], nil
	end := w.appended.Load()
	w.mu.Unlock()

	h := w.seconds.Load()
	var start time.Duration
	if h != nil {
		start = h.Now()
	}
	err := w.writeOut(chunk, fsync, then)
	idx := w.idx
	if h != nil {
		h.ObserveSince(start)
	}

	w.mu.Lock()
	if err != nil {
		// Back to the head of the buffer, ahead of whatever was appended
		// while the flush ran: the retry re-writes these bytes in order.
		w.buf = append(chunk, w.buf...)
		w.flushFails.Add(1)
		failed := err // a copy, so that err escapes on this branch only
		w.failed.Store(&failed)
	} else {
		w.spare = chunk[:0]
		w.flushed.Store(end)
		if len(chunk) > 0 {
			w.flushes.Add(1)
		}
		w.failed.Store(nil)
	}
	w.flushing = false
	w.cond.Broadcast()
	w.mu.Unlock()
	return idx, err
}

// writeOut is the flusher's I/O, run with no lock held: one write, an
// fsync if asked, and a rotation when the segment is full or then says
// so. On any error the whole flush has failed and the segment is left
// in a state the retry can write to: a failed write truncates the tear
// away; a failed fsync or seal abandons the segment, so the retry
// re-writes the bytes into a fresh one and the suspect descriptor is
// never fsynced again (an fsync that fails may have dropped the dirty
// pages; a second one on the same descriptor can "succeed" over them).
// Bytes an abandoned segment did keep show up twice in replay, which the
// caller's replay filter deduplicates like any checkpoint overlap.
func (w *wal) writeOut(chunk []byte, fsync bool, then after) error {
	if w.f == nil {
		// The last flush abandoned its segment: start the next one first.
		if err := w.openActive(); err != nil {
			return err
		}
		return w.writeOut(chunk, fsync, then)
	}
	if len(chunk) > 0 {
		good := w.size
		n, err := w.f.Write(chunk)
		w.size += int64(n)
		if err != nil {
			w.dropTorn(good)
			return fmt.Errorf("tsdb: wal write: %w", err)
		}
	}
	if fsync && w.synced < w.size {
		if err := w.fsync(); err != nil {
			return err
		}
	}
	if then != thenKeep || w.size >= w.segmentBytes {
		return w.seal(then != thenShut)
	}
	return nil
}

// dropTorn repairs the active segment after a failed write. The torn
// bytes must not stay mid-segment in front of later records: replay
// stops a segment at its first corrupt frame, so leaving the tear would
// silently drop everything written after one transient error. Preferred
// repair is truncating back to the last good offset; if even that fails
// the segment is abandoned, so the tear only ends a sealed segment's
// replay — which loses nothing acknowledged, since the failed bytes
// never were.
func (w *wal) dropTorn(good int64) {
	if err := w.f.Truncate(good); err == nil {
		w.size = good
		return
	}
	w.abandon()
}

// abandon gives up on the active segment's descriptor; the next flush
// opens the next segment.
func (w *wal) abandon() {
	_ = w.f.Close() // best effort: the handle is already suspect
	w.f = nil
	w.idx++
}

// fsync wraps Sync with the counters; a failure abandons the segment.
func (w *wal) fsync() error {
	w.fsyncs.Add(1)
	if err := w.f.Sync(); err != nil {
		w.fsyncErrs.Add(1)
		w.abandon()
		return fmt.Errorf("tsdb: wal fsync: %w", err)
	}
	w.synced = w.size
	return nil
}

// seal closes the active segment — fsyncing first whatever an interval
// policy left unsynced — and, unless the log is shutting down, starts the
// next one.
func (w *wal) seal(reopen bool) error {
	if w.policy != SyncNever && w.synced < w.size {
		if err := w.fsync(); err != nil {
			return err
		}
	}
	err := w.f.Close()
	w.f = nil
	w.idx++
	if err != nil {
		return fmt.Errorf("tsdb: wal close: %w", err)
	}
	if !reopen {
		return nil
	}
	return w.openActive()
}

// removeBelow deletes every segment older than idx: the checkpoint
// truncation step, run only after the snapshot covering them is durable.
func (w *wal) removeBelow(idx uint64) error {
	entries, err := os.ReadDir(w.dir)
	if err != nil {
		return fmt.Errorf("tsdb: wal dir: %w", err)
	}
	var firstErr error
	for _, e := range entries {
		if seg, ok := parseSegName(e.Name()); ok && seg < idx {
			if err := os.Remove(filepath.Join(w.dir, e.Name())); err != nil && firstErr == nil {
				firstErr = err
			}
		}
	}
	return firstErr
}

// replaySegments streams every point recorded in dir's segments segs, in
// append order. Corruption — a torn final record from a crash, a flipped
// bit failing CRC, an insane length prefix — ends that segment's replay
// at the last intact record and is counted, never fatal: a 50-year
// endpoint treats a damaged log as partial data, not as a reason to
// refuse to boot. A damaged segment is additionally truncated back to its
// last intact record — which drops nothing replay would have read — so
// the damage is not re-counted at every boot until the next checkpoint.
// The crash-time segment's torn tail is the usual case; a failed flush
// that could not repair its segment (dropTorn, abandon) leaves one
// mid-list. Replayed segments all predate the open and have no writer.
func replaySegments(dir string, segs []uint64, logf func(string, ...any), emit func(Point)) (records, corruptions uint64, err error) {
	for _, idx := range segs {
		path := filepath.Join(dir, segName(idx))
		segRecords, good, corrupt, err := replaySegment(path, emit)
		records += segRecords
		if err != nil {
			return records, corruptions, err
		}
		if corrupt != nil {
			corruptions++
			if logf != nil {
				logf("tsdb: %s: %v after %d records (%d bytes intact); recovering", path, corrupt, segRecords, good)
			}
			// Best-effort: a segment that cannot be trimmed is counted again.
			if terr := os.Truncate(path, good); terr != nil && logf != nil {
				logf("tsdb: %s: truncate: %v", path, terr)
			}
		}
	}
	return records, corruptions, nil
}

// listSegments returns the sorted segment indices in dir.
func listSegments(dir string) ([]uint64, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("tsdb: wal dir: %w", err)
	}
	var segs []uint64
	for _, e := range entries {
		if idx, ok := parseSegName(e.Name()); ok {
			segs = append(segs, idx)
		}
	}
	sort.Slice(segs, func(i, j int) bool { return segs[i] < segs[j] })
	return segs, nil
}

// replaySegment reads one segment, emitting decoded points, and reports
// how many bytes of intact records prefix the file. A decode failure is
// returned as corrupt (recoverable); only I/O setup errors are fatal.
func replaySegment(path string, emit func(Point)) (records uint64, goodBytes int64, corrupt, err error) {
	f, err := os.Open(path)
	if err != nil {
		return 0, 0, nil, fmt.Errorf("tsdb: wal segment: %w", err)
	}
	//lint:syncerr read-only replay handle; a close error cannot un-write the records just decoded
	defer f.Close()
	records, goodBytes, corrupt = DecodeRecords(bufio.NewReader(f), emit)
	return records, goodBytes, corrupt, nil
}
