// Package cloud implements the data endpoint: the backend that receives,
// authenticates, deduplicates, stores, and publishes device telemetry —
// the centurysensors.com piece of the paper's 50-year experiment (§4.4-4.5).
//
// The paper's end-to-end uptime metric is deliberately modest: "some data
// arrives at some interval of time up to once a week that is publicly
// accessible." The Store tracks exactly that — per-week delivery — along
// with per-device history. Whether the public name was reachable at all
// (the DNS lease of §4.5, whose lapse darkens the endpoint however
// healthy the sensors are) is a fact about the world, not something an
// endpoint can know: the simulator in internal/core models it and drops
// what arrives while it is dark.
//
// Storage is delegated to internal/tsdb: hash-sharded per-device series
// with an optional write-ahead log, so ingest scales with cores and an
// acknowledged reading survives a crash. This package keeps admission —
// authentication, replay rejection, the weekly-uptime ledger, all of it
// per guard shard — the checkpoint (persist.go: a manifest beside
// binary segments), and the versioned-JSON snapshot that stays the
// portable, readable-in-2060 export format.
package cloud

import (
	"cmp"
	"errors"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"centuryscale/internal/lpwan"
	"centuryscale/internal/rollup"
	"centuryscale/internal/sim"
	"centuryscale/internal/telemetry"
	"centuryscale/internal/tsdb"
)

// KeyResolver maps a device address to its verification key. Returning
// ok=false rejects the device as unknown.
type KeyResolver func(dev lpwan.EUI64) (telemetry.Key, bool)

// StaticKeys builds a resolver from a fleet master secret: every derived
// device key verifies (the manufacturer-provisioning model).
func StaticKeys(master []byte) KeyResolver {
	return func(dev lpwan.EUI64) (telemetry.Key, bool) {
		return telemetry.DeriveKey(master, dev), true
	}
}

// Reading is one accepted packet with its arrival time (virtual time in
// simulations, process-relative wall time in the daemons).
type Reading struct {
	At     time.Duration
	Packet telemetry.Packet
}

// IngestStats counts the endpoint's traffic disposition. It is the
// plain-value snapshot/export form (JSON in snapshots and /status); the
// live counters behind it are atomics (ingestCounters).
type IngestStats struct {
	Accepted        uint64 // readings the store holds: admitted, replayed, restored or repaired
	Duplicates      uint64 // same packet via a second gateway, or replay
	BadSignature    uint64
	Malformed       uint64
	UnknownDev      uint64
	LeaseLapsed     uint64 // carried from archives of builds that refused lapsed arrivals; nothing counts it now
	Quarantined     uint64 // carried likewise from builds that had a quarantine; nothing counts it now
	PersistFailures uint64 // WAL flush failed; packet not acked (it is admitted, and its retry is a duplicate)
	Repaired        uint64 // readings merged from a replica by read-repair; a subset of Accepted
	Stale           uint64 // arrival below the rollup fold watermark (sealed region)
}

// ingestCounters is the live, lock-free backing of IngestStats. Every
// disposition is one atomic add: a storm of rejects (malformed floods, a
// replayed batch) must not serialize all cores on one lock just to count
// itself.
type ingestCounters struct {
	accepted        atomic.Uint64
	duplicates      atomic.Uint64
	badSignature    atomic.Uint64
	malformed       atomic.Uint64
	unknownDev      atomic.Uint64
	leaseLapsed     atomic.Uint64
	quarantined     atomic.Uint64
	persistFailures atomic.Uint64
	repaired        atomic.Uint64
	stale           atomic.Uint64
}

func (c *ingestCounters) snapshot() IngestStats {
	return IngestStats{
		Accepted:        c.accepted.Load(),
		Duplicates:      c.duplicates.Load(),
		BadSignature:    c.badSignature.Load(),
		Malformed:       c.malformed.Load(),
		UnknownDev:      c.unknownDev.Load(),
		LeaseLapsed:     c.leaseLapsed.Load(),
		Quarantined:     c.quarantined.Load(),
		PersistFailures: c.persistFailures.Load(),
		Repaired:        c.repaired.Load(),
		Stale:           c.stale.Load(),
	}
}

func (c *ingestCounters) restore(st IngestStats) {
	c.accepted.Store(st.Accepted)
	c.duplicates.Store(st.Duplicates)
	c.badSignature.Store(st.BadSignature)
	c.malformed.Store(st.Malformed)
	c.unknownDev.Store(st.UnknownDev)
	c.leaseLapsed.Store(st.LeaseLapsed)
	c.quarantined.Store(st.Quarantined)
	c.persistFailures.Store(st.PersistFailures)
	c.repaired.Store(st.Repaired)
	c.stale.Store(st.Stale)
}

// ErrPersist wraps a failed log flush: the reading must not be
// acknowledged. Unless it was refused ahead of Admit (the log was already
// failed), it is admitted and readable — in the memtable and the log
// buffer, durable at the next flush that succeeds — so the sender's retry
// comes back as a duplicate, itself acknowledged only once a flush covers
// the original. The HTTP layer maps it to 503 + Retry-After so resilient
// gateways buffer and retry.
var ErrPersist = errors.New("cloud: persist failed")

// guardShard is one partition of per-device admission state. It is
// sharded with the same hash as the storage engine so two packets from
// the same device always serialize on the same lock, and packets from
// different devices almost never do.
type guardShard struct {
	mu sync.Mutex
	// devices holds one record per device this shard has admitted or
	// restored. Records are never removed and never replaced, so a
	// pointer found under mu stays the device's live record.
	devices map[lpwan.EUI64]*device
	// accepted counts admissions and repaired readings under mu, which
	// also covers their memtable insert, so Store.cut reads a shard's
	// series and its share of Stats.Accepted together. Shard 0 starts
	// from a restore's total.
	accepted uint64
	// weeks holds the index of every week in which this shard admitted a
	// reading, under the same mu and for the same reason: a checkpoint
	// never holds a reading without its week. Shard 0 starts from a
	// restore's ledger; WeeklyUptime takes the union.
	weeks map[int64]struct{}
}

// device is one device's admission record: its key's pad state and its
// replay window. win is read and written under the shard's mu. auth is
// written once, under mu, with keyed; after that it is immutable and
// verification reads it with no lock held. A record restored from the
// log, a checkpoint or a peer has a window but no pad state until the
// device's first admitted packet brings one.
type device struct {
	auth  telemetry.Auth
	win   telemetry.Window
	keyed bool
}

// enrol returns dev's record, making an unkeyed one if the shard has
// none. The caller holds gs.mu.
func (gs *guardShard) enrol(dev lpwan.EUI64) *device {
	rec := gs.devices[dev]
	if rec == nil {
		rec = new(device)
		gs.devices[dev] = rec
	}
	return rec
}

// Store is the endpoint state: authenticated time-series per device plus
// the weekly-uptime ledger. Safe for concurrent use. The hot ingest path
// takes only its device's guard-shard lock and the matching storage
// shard lock, and disposition counting is lock-free atomics: no lock on
// it is shared by every shard.
type Store struct {
	keys   KeyResolver
	db     *tsdb.DB
	guards []*guardShard
	// scratch pools admission's working sets (admit.go).
	scratch sync.Pool

	stats ingestCounters // lock-free; see IngestStats for the export form

	// batchFrames / batchFrameErrors count whole frames on the batched
	// ingest path (per-packet dispositions land in stats like any other
	// packet): admitted well-formed frames, and frames rejected at the
	// structural layer (torn, bad CRC, bad count).
	batchFrames      atomic.Uint64
	batchFrameErrors atomic.Uint64

	// rollups is the tiered-downsampling engine, never nil: armed at the
	// default geometry by NewStoreWithDB, replaced by EnableRollups and by
	// a load (which adopts its archive's geometry). An atomic pointer
	// because the ingest hot path reads it per packet while boot installs
	// it; see rollups.go for the fold protocol.
	rollups   atomic.Pointer[rollup.Engine]
	retainRaw time.Duration // raw tail width, 0 = never fold; set once by EnableRollups
	// foldMu's write side is FoldRollups', from Advance to the end of
	// Fold; a query's cut and a checkpoint's cut take the read side, so
	// neither sees a fold half landed. Lock order: foldMu → the rollup
	// engine's mu → a shard's mu.
	foldMu sync.RWMutex

	// Checkpoint state (persist.go), owned by whoever holds saving: the
	// archive the last load or save left, the sealed-segment rotation
	// size (0: the default), and what the cloud_checkpoint_* metrics
	// read. The checkpoint writes through the DB's disk (tsdb.DB.FS).
	saving                               atomic.Bool
	arch                                 archive
	segmentBytes                         int64
	lastLoad                             LoadInfo
	ckptBytes, ckptBuckets, ckptFailures atomic.Uint64
	ckptSegments                         atomic.Int64
	archSealedBytes, archTailBytes       atomic.Int64 // the manifest in force: its files' bytes
	archBuckets                          atomic.Int64 // and the buckets its sealed segments hold
	ckptObs                              atomic.Pointer[checkpointObs]

	// highWater is the maximum arrival time ever accepted (nanoseconds):
	// the data clock fold cutoffs are derived from, so retention depends
	// on the stream, not the wall.
	highWater atomic.Int64

	// obs is the optional ingest latency histogram, installed by
	// RegisterMetrics. An atomic pointer rather than a field set at
	// construction so un-instrumented stores (simulations, tests) pay
	// one predictable nil-check and nothing else.
	obs atomic.Pointer[ingestObs]

	// lapses is the "lapses" list of the archive last loaded, carried to
	// every later checkpoint and export so they stay byte-identical to
	// what older builds wrote. It has no effect on admission: lapses are
	// modelled by the simulator (internal/core), ahead of Ingest.
	lapses atomic.Pointer[[][2]int64]
}

// replayWindow tolerates dual-gateway delivery races.
const replayWindow = 16

// NewStore returns an in-memory endpoint store (no WAL): the right shape
// for simulations, tests, and deployments that accept snapshot-interval
// durability. For crash-safe storage, open a tsdb.DB with a directory
// and use NewStoreWithDB.
func NewStore(keys KeyResolver) *Store {
	db, err := tsdb.Open(tsdb.Options{})
	if err != nil {
		// Memory-only Open touches no I/O; failure is a programming error.
		panic("cloud: " + err.Error())
	}
	return NewStoreWithDB(keys, db)
}

// NewStoreWithDB returns a store backed by an existing storage engine.
// Boot order for a durable endpoint: Open the DB, build the store, load
// the last snapshot (LoadFile), then ReplayWAL to roll forward.
func NewStoreWithDB(keys KeyResolver, db *tsdb.DB) *Store {
	if keys == nil {
		panic("cloud: nil key resolver")
	}
	if db == nil {
		panic("cloud: nil tsdb")
	}
	s := &Store{
		keys:    keys,
		db:      db,
		scratch: sync.Pool{New: newAdmitScratch},
	}
	s.guards = make([]*guardShard, db.Shards())
	for i := range s.guards {
		s.guards[i] = &guardShard{devices: make(map[lpwan.EUI64]*device), weeks: make(map[int64]struct{})}
	}
	eng, err := rollup.New(rollup.Config{})
	if err != nil {
		// The default geometry is valid; failure is a programming error.
		panic("cloud: " + err.Error())
	}
	s.rollups.Store(eng)
	return s
}

func (s *Store) guardFor(dev lpwan.EUI64) *guardShard {
	return s.guards[tsdb.ShardIndex(dev, len(s.guards))]
}

// DB exposes the underlying storage engine (for checkpointing, stats,
// and shutdown).
func (s *Store) DB() *tsdb.DB { return s.db }

// Close seals the storage engine's write-ahead log.
func (s *Store) Close() error { return s.db.Close() }

// StorageStats returns the storage engine's summary.
func (s *Store) StorageStats() tsdb.Stats { return s.db.Stats() }

// ReplayWAL rolls the storage engine's write-ahead log forward over
// whatever state is already loaded (usually the last checkpoint). Records
// the replay guard has already seen — the overlap a crash between
// checkpoint write and WAL truncation leaves behind — are skipped, so
// replay is idempotent. Records below the restored fold watermark are
// likewise skipped: they are already summarized in the checkpoint's
// rollup buckets (a crash between the checkpoint's rename and its WAL
// truncation leaves them behind), and loading them raw would count them
// twice. The guard still learns their sequence numbers first. Returns
// the engine's replay summary.
func (s *Store) ReplayWAL() (tsdb.ReplayStats, error) {
	folded := s.rollups.Load().FoldedBefore()
	return s.db.Replay(func(pt tsdb.Point) bool {
		s.observeArrival(pt.At)
		p := packetOf(pt)
		gs := s.guardFor(p.Device)
		gs.mu.Lock()
		// Below the watermark: summarized in the checkpoint's buckets and
		// counted there. Refused by the guard: held already.
		keep := gs.enrol(p.Device).win.Record(p.Seq, replayWindow) && pt.At >= folded
		if keep {
			gs.accepted++
			gs.weeks[int64(pt.At/sim.Week)] = struct{}{}
		}
		gs.mu.Unlock()
		if keep {
			s.stats.accepted.Add(1)
		}
		return keep
	})
}

func pointOf(at time.Duration, p telemetry.Packet) tsdb.Point {
	return tsdb.Point{
		Device: p.Device,
		At:     at,
		Seq:    p.Seq,
		Sensor: uint8(p.Sensor),
		Value:  p.Value,
		Uptime: p.UptimeSeconds,
	}
}

func packetOf(pt tsdb.Point) telemetry.Packet {
	return telemetry.Packet{
		Device:        pt.Device,
		Seq:           pt.Seq,
		Sensor:        telemetry.SensorType(pt.Sensor),
		Value:         pt.Value,
		UptimeSeconds: pt.Uptime,
	}
}

func readingOf(pt tsdb.Point) Reading {
	return Reading{At: pt.At, Packet: packetOf(pt)}
}

// Stats returns a snapshot of the counters. Each field is individually
// exact; a snapshot taken while ingest races may tear between fields
// (e.g. a duplicate counted before the accept it duplicates) — at
// quiescence it is exact in full.
func (s *Store) Stats() IngestStats {
	return s.stats.snapshot()
}

// Devices returns every device the store holds readings of, raw or
// folded into rollup buckets, sorted by address: the guard shards'
// records (DESIGN.md S55). A record stays when its raw points are folded
// away, so a device silent past the raw window is still listed.
func (s *Store) Devices() []lpwan.EUI64 {
	var out []lpwan.EUI64
	s.eachDevice(func(dev lpwan.EUI64) { out = append(out, dev) })
	slices.SortFunc(out, func(a, b lpwan.EUI64) int { return cmp.Compare(a.Uint64(), b.Uint64()) })
	return out
}

// deviceCount is len(Devices()) without building the list.
func (s *Store) deviceCount() int {
	n := 0
	s.eachDevice(func(lpwan.EUI64) { n++ })
	return n
}

// eachDevice calls fn, under its guard shard's lock, for every record
// whose window has seen a sequence number. A record is made only when a
// reading is admitted, restored, replayed or repaired, and never removed;
// the one a restore into a used store reset has a zero window and stays
// out until its device is heard again.
func (s *Store) eachDevice(fn func(lpwan.EUI64)) {
	for _, gs := range s.guards {
		gs.mu.Lock()
		for dev, rec := range gs.devices {
			if rec.win != (telemetry.Window{}) {
				fn(dev)
			}
		}
		gs.mu.Unlock()
	}
}

// History returns a copy of one device's readings in arrival order.
func (s *Store) History(dev lpwan.EUI64) []Reading {
	pts := s.db.History(dev)
	out := make([]Reading, len(pts))
	for i, pt := range pts {
		out[i] = readingOf(pt)
	}
	return out
}

// HistoryRange returns one device's readings with arrival time in
// [from, to), in arrival order — the storage engine's range query,
// behind /history and /export.
func (s *Store) HistoryRange(dev lpwan.EUI64, from, to time.Duration) []Reading {
	pts, release := s.db.RangeSlice(dev, from, to)
	defer release()
	out := make([]Reading, len(pts))
	for i, pt := range pts {
		out[i] = readingOf(pt)
	}
	return out
}

// Count returns the total accepted readings.
func (s *Store) Count() uint64 {
	return s.stats.accepted.Load()
}

// WeeklyUptime returns the paper's end-to-end metric over [0, horizon):
// the fraction of weeks in which at least one packet was accepted, the
// union of the guard shards' ledgers.
func (s *Store) WeeklyUptime(horizon time.Duration) float64 {
	total := int64(horizon / sim.Week)
	if total <= 0 {
		return 0
	}
	up := make(map[int64]struct{})
	for _, gs := range s.guards {
		gs.mu.Lock()
		for w := range gs.weeks {
			if w < total {
				up[w] = struct{}{}
			}
		}
		gs.mu.Unlock()
	}
	return float64(len(up)) / float64(total)
}
