package tsdb

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"centuryscale/internal/lpwan"
)

// Defaults for Options zero values.
const (
	DefaultShards       = 8
	DefaultSegmentBytes = 4 << 20
	DefaultSyncEvery    = time.Second
)

// Options configures a DB.
type Options struct {
	// Dir is the storage directory; the one log all shards share lives
	// under Dir/wal. Empty means memory-only: the same sharded engine
	// with no durability, for simulations and tests.
	Dir string
	// Shards is the partition count (default DefaultShards). More
	// shards means more ingest concurrency in memory; it does not
	// multiply files or fsyncs, since every shard appends to the same
	// log. Changing the count on an existing Dir is safe: sharding is an
	// in-memory routing decision, and replay routes each record through
	// the current shard map.
	Shards int
	// Sync is the WAL fsync policy (default SyncAlways).
	Sync SyncPolicy
	// SyncEvery is the background fsync cadence under SyncInterval.
	SyncEvery time.Duration
	// SegmentBytes rotates WAL segments past this size.
	SegmentBytes int64
	// Logf, when set, receives recovery diagnostics
	// (corrupt WAL records found, segments truncated).
	Logf func(string, ...any)
}

// Stats describes the engine's current shape.
type Stats struct {
	Shards      int    `json:"shards"`
	Devices     int    `json:"devices"`
	Points      int    `json:"points"`
	Appended    uint64 `json:"appended"`
	Replayed    uint64 `json:"replayed"`
	Corruptions uint64 `json:"corruptions"`
	WALSegments int    `json:"wal_segments"`
	WALBytes    int64  `json:"wal_bytes"`
}

// ReplayStats summarises one boot-time WAL replay.
type ReplayStats struct {
	Records     uint64 // records decoded from the WAL
	Kept        uint64 // records the caller's filter admitted
	Corruptions uint64 // torn/corrupt frames tolerated
}

// DB is the storage engine. All methods are safe for concurrent use.
type DB struct {
	opts   Options
	shards []*shard
	wal    *wal // the one log under every shard; nil in memory-only mode

	// legacyDirs are Dir/shard-NNN directories from the per-shard WAL
	// layout this engine used to write. Their segments are replayed
	// (records route through the current shard map) and the directories
	// are retired at the next checkpoint.
	legacyDirs []string

	appended     atomic.Uint64
	replayed     atomic.Uint64
	corruptions  atomic.Uint64
	appendErrors atomic.Uint64

	stopSync chan struct{}
	syncDone chan struct{}

	closeOnce sync.Once
	closeErr  error
}

// Open creates the engine. With a Dir it opens (creating as needed) the
// log; boot-time state reconstruction is a separate, explicit Replay call
// so the caller can layer it over a loaded checkpoint.
func Open(opts Options) (*DB, error) {
	if opts.Shards <= 0 {
		opts.Shards = DefaultShards
	}
	if opts.SegmentBytes <= 0 {
		opts.SegmentBytes = DefaultSegmentBytes
	}
	if opts.SyncEvery <= 0 {
		opts.SyncEvery = DefaultSyncEvery
	}
	db := &DB{opts: opts, shards: make([]*shard, opts.Shards)}
	if opts.Dir != "" {
		w, err := openWAL(filepath.Join(opts.Dir, walDir), opts.SegmentBytes, opts.Sync)
		if err != nil {
			return nil, err
		}
		db.wal = w
		entries, err := os.ReadDir(opts.Dir)
		if err != nil {
			_ = w.close() // nothing was appended; the ReadDir error is the one to report
			return nil, fmt.Errorf("tsdb: dir: %w", err)
		}
		for _, e := range entries {
			var n int
			if _, err := fmt.Sscanf(e.Name(), "shard-%03d", &n); err == nil && e.IsDir() && e.Name() == fmt.Sprintf("shard-%03d", n) {
				db.legacyDirs = append(db.legacyDirs, filepath.Join(opts.Dir, e.Name()))
			}
		}
		sort.Strings(db.legacyDirs)
	}
	for i := range db.shards {
		db.shards[i] = newShard(db.wal)
	}
	if db.wal != nil && opts.Sync == SyncInterval {
		db.stopSync = make(chan struct{})
		db.syncDone = make(chan struct{})
		go db.syncLoop()
	}
	return db, nil
}

// walDir is the log's directory under Options.Dir.
const walDir = "wal"

func (db *DB) syncLoop() {
	defer close(db.syncDone)
	tick := time.NewTicker(db.opts.SyncEvery)
	defer tick.Stop()
	for {
		select {
		case <-db.stopSync:
			return
		case <-tick.C:
			if err := db.wal.sync(); err != nil && db.opts.Logf != nil {
				db.opts.Logf("tsdb: interval fsync: %v", err)
			}
		}
	}
}

// Shards returns the partition count.
func (db *DB) Shards() int { return len(db.shards) }

// Durable reports whether the engine has a WAL.
func (db *DB) Durable() bool { return db.opts.Dir != "" }

// Mix64 is the splitmix64 finalizer: the avalanche function behind
// ShardIndex. Exported on its own so higher layers that partition the
// same device space — the cluster's consistent-hash ring — hash with
// bit-identical spread, keeping "which shard" and "which node" decisions
// derived from one function.
func Mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// ShardIndex maps a device to its partition: a splitmix64 finalizer over
// the EUI-64, so the sequential device numbering a manufacturer burns in
// still spreads evenly. Exported so callers sharding their own
// per-device state (the endpoint's replay guards) stay aligned.
func ShardIndex(dev lpwan.EUI64, shards int) int {
	return int(Mix64(dev.Uint64()) % uint64(shards))
}

func (db *DB) shardFor(dev lpwan.EUI64) *shard {
	return db.shards[ShardIndex(dev, len(db.shards))]
}

// Append durably stores one point: AppendBatch of one. An error means
// the point must not be acknowledged (see Flush for what became of it).
//
// Allocations: 0 per call, measured by TestAppendAllocBudget.
func (db *DB) Append(p Point) error {
	pts := [1]Point{p}
	return db.AppendBatch(pts[:])
}

// Load inserts a point without writing the WAL: for restoring state that
// is already durable elsewhere (a checkpoint file).
func (db *DB) Load(p Point) {
	db.shardFor(p.Device).load(p)
}

// Reset drops all in-memory state, leaving the WAL untouched.
func (db *DB) Reset() {
	for _, sh := range db.shards {
		sh.reset()
	}
}

// Replay streams every WAL record through keep; admitted points are
// inserted into the in-memory series. The filter is where the caller
// deduplicates records that overlap the checkpoint it already loaded — a
// crash between checkpoint write and segment truncation leaves such an
// overlap by design. Corrupt frames end the damaged segment's replay at
// the last intact record, counted and (via Options.Logf) logged, never
// fatal.
//
// Records are read in log order and handed on in bounded batches, each
// bucketed by shard: a device's records reach keep in the order they
// were logged, boot memory does not grow with the log (it used to hold a
// whole directory's records before filtering the first), and keep and
// the memtable work through one shard's devices at a time — the locality
// the per-shard logs gave replay for free, worth a third of its time.
// Replay reads only pre-open segments, which are immutable, so decoding
// holds no lock and keep (which takes the caller's own locks) never runs
// under one of the engine's. Each admitted point is routed through the
// CURRENT shard map, whatever layout or shard count wrote it.
func (db *DB) Replay(keep func(Point) bool) (ReplayStats, error) {
	var st ReplayStats
	if db.wal == nil {
		return st, nil
	}
	buckets := make([][]Point, len(db.shards))
	pending := 0
	drain := func() {
		for i, bucket := range buckets {
			for _, p := range bucket {
				if keep == nil || keep(p) {
					db.shards[i].load(p)
					st.Kept++
				}
			}
			buckets[i] = bucket[:0]
		}
		pending = 0
	}
	emit := func(p Point) {
		i := ShardIndex(p.Device, len(buckets))
		buckets[i] = append(buckets[i], p)
		if pending++; pending == replayBatch {
			drain()
		}
	}
	replay := func(dir string, segs []uint64) error {
		records, corruptions, err := replaySegments(dir, segs, db.opts.Logf, emit)
		drain()
		st.Records += records
		st.Corruptions += corruptions
		return err
	}
	// Legacy per-shard directories first: whatever they hold predates
	// everything in the shared log.
	for _, dir := range db.legacyDirs {
		segs, err := listSegments(dir)
		if err == nil {
			err = replay(dir, segs)
		}
		if err != nil {
			return st, err
		}
	}
	err := replay(db.wal.dir, db.wal.existing)
	db.replayed.Add(st.Records)
	db.corruptions.Add(st.Corruptions)
	return st, err
}

// replayBatch is how many records Replay holds at a time (2.5 MiB of
// Points): enough that each shard's share of a batch revisits its
// devices many times over, small beside the memtable being rebuilt.
const replayBatch = 1 << 16

// Checkpoint makes save's output the new recovery baseline and truncates
// the WAL behind it. Sequence: rotate to a fresh segment (so every record
// before this moment is in a sealed segment), then run save — which must
// persist at least the engine's current state — and only after save
// succeeds, delete the sealed segments. Records appended while save runs
// land in the new segments and stay replayable; records appended between
// rotation and the state copy appear in both snapshot and WAL, which the
// caller's Replay filter deduplicates after a crash in that window.
func (db *DB) Checkpoint(save func() error) error {
	if !db.Durable() {
		return save()
	}
	mark, err := db.wal.rotate()
	if err != nil {
		return err
	}
	if err := save(); err != nil {
		return err
	}
	// removeBelow only touches sealed, immutable segment files, and the
	// legacy directories are fully covered by the snapshot now.
	if err := db.wal.removeBelow(mark); err != nil {
		return err
	}
	for _, dir := range db.legacyDirs {
		if err := os.RemoveAll(dir); err != nil {
			return err
		}
	}
	db.legacyDirs = nil
	return nil
}

// Sync forces WAL appends to stable storage regardless of policy — the
// explicit flush for shutdown paths and tests.
func (db *DB) Sync() error {
	if db.wal == nil {
		return nil
	}
	return db.wal.sync()
}

// Devices returns every device with stored points, sorted by address.
func (db *DB) Devices() []lpwan.EUI64 {
	var out []lpwan.EUI64
	for _, sh := range db.shards {
		out = append(out, sh.devices()...)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Uint64() < out[j].Uint64() })
	return out
}

// History returns a copy of one device's points in arrival order.
func (db *DB) History(dev lpwan.EUI64) []Point {
	return db.shardFor(dev).history(dev)
}

// rangePool recycles range-query result buffers. Entries are *[]Point
// (pointer to avoid an allocation per Put); capacity is whatever the
// largest query that used the buffer needed.
var rangePool = sync.Pool{
	New: func() any {
		buf := make([]Point, 0, 512)
		return &buf
	},
}

// Range returns an iterator over one device's points with At in
// [from, to), in arrival order. The iterator holds a private copy, so it
// stays valid (and the shard stays unlocked) while the caller streams
// it out to a slow HTTP client. The copy's buffer is pooled: call Close
// when done to recycle it. Skipping Close is safe — the buffer is then
// simply garbage-collected instead of reused.
func (db *DB) Range(dev lpwan.EUI64, from, to time.Duration) *Iterator {
	pts, release := db.RangeSlice(dev, from, to)
	return &Iterator{pts: pts, i: -1, release: release}
}

// RangeSlice is the allocation-free form of Range: the returned slice
// borrows a pooled buffer, and release returns it to the pool. The
// slice must not be used after release (which is idempotent and safe to
// drop — unreleased buffers are garbage-collected).
func (db *DB) RangeSlice(dev lpwan.EUI64, from, to time.Duration) (pts []Point, release func()) {
	bufp := rangePool.Get().(*[]Point)
	*bufp = db.shardFor(dev).rangeInto(dev, from, to, (*bufp)[:0])
	return *bufp, func() {
		if bufp != nil {
			rangePool.Put(bufp)
			bufp = nil
		}
	}
}

// ForEach calls fn for every stored point, shard by shard (each shard's
// lock is held only for its own copy). Order within a device follows
// arrival; order across devices is unspecified.
func (db *DB) ForEach(fn func(Point)) {
	for _, sh := range db.shards {
		for _, pts := range sh.snapshot() {
			for _, p := range pts {
				fn(p)
			}
		}
	}
}

// TimesByDevice copies the arrival times of every stored series, one
// slice per device in that device's arrival order (not guaranteed sorted
// by At across restarts — see rangeCopy). Order across devices is
// unspecified. Each shard's lock is held only for its own copy. This
// feeds cross-device gap analysis, which merges the per-device runs
// rather than re-sorting the fleet's entire history.
func (db *DB) TimesByDevice() [][]time.Duration {
	var out [][]time.Duration
	for _, sh := range db.shards {
		out = append(out, sh.times()...)
	}
	return out
}

// SnapshotShard copies shard i's series map. Snapshot writers iterate
// shards with this so no two shards are locked at once and encoding
// happens lock-free.
func (db *DB) SnapshotShard(i int) map[lpwan.EUI64][]Point {
	return db.shards[i].snapshot()
}

// Stats returns a point-in-time summary, including on-disk WAL footprint.
func (db *DB) Stats() Stats {
	st := Stats{
		Shards:      len(db.shards),
		Appended:    db.appended.Load(),
		Replayed:    db.replayed.Load(),
		Corruptions: db.corruptions.Load(),
	}
	for _, sh := range db.shards {
		sh.mu.Lock()
		st.Devices += len(sh.points)
		for _, pts := range sh.points {
			st.Points += len(pts)
		}
		sh.mu.Unlock()
	}
	if db.wal != nil {
		entries, _ := os.ReadDir(db.wal.dir) // an unreadable directory reports an empty log
		for _, e := range entries {
			if _, ok := parseSegName(e.Name()); !ok {
				continue
			}
			st.WALSegments++
			if info, err := e.Info(); err == nil {
				st.WALBytes += info.Size()
			}
		}
	}
	return st
}

// Close stops background work and seals the WAL. The DB must not be
// used afterwards.
func (db *DB) Close() error {
	db.closeOnce.Do(func() {
		if db.stopSync != nil {
			close(db.stopSync)
			<-db.syncDone
		}
		if db.wal != nil {
			db.closeErr = db.wal.close()
		}
	})
	return db.closeErr
}
