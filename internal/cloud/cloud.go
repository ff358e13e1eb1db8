// Package cloud implements the data endpoint: the backend that receives,
// authenticates, deduplicates, stores, and publishes device telemetry —
// the centurysensors.com piece of the paper's 50-year experiment (§4.4-4.5).
//
// The paper's end-to-end uptime metric is deliberately modest: "some data
// arrives at some interval of time up to once a week that is publicly
// accessible." The Store tracks exactly that — per-week delivery — along
// with per-device history. The endpoint also carries the one piece of
// scheduled institutional maintenance the paper calls out as certain: the
// DNS domain lease, renewable at most every 10 years, whose lapse takes
// the public page (and thus the metric) down no matter how healthy the
// sensors are.
//
// Storage is delegated to internal/tsdb: hash-sharded per-device series
// with an optional write-ahead log, so ingest scales with cores and an
// acknowledged reading survives a crash. This package keeps the policy —
// authentication, replay rejection, quarantine, lapse windows, the
// weekly-uptime ledger — the checkpoint (persist.go: a manifest beside
// binary segments), and the versioned-JSON snapshot that stays the
// portable, readable-in-2060 export format.
package cloud

import (
	"errors"
	"sync"
	"sync/atomic"
	"time"

	"centuryscale/internal/lpwan"
	"centuryscale/internal/query"
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
	Accepted        uint64
	Duplicates      uint64 // same packet via a second gateway, or replay
	BadSignature    uint64
	Malformed       uint64
	UnknownDev      uint64
	LeaseLapsed     uint64 // arrived while the public endpoint was dark
	Quarantined     uint64 // from devices whose trust has been revoked
	PersistFailures uint64 // WAL flush failed; packet not acked (it is admitted, and its retry is a duplicate)
	Repaired        uint64 // readings merged from a replica by read-repair
	Stale           uint64 // arrival below the rollup fold watermark (sealed region)
}

// ingestCounters is the live, lock-free backing of IngestStats. Every
// disposition is one atomic add: a storm of rejects (malformed floods, a
// replayed batch, a quarantined fleet) must not serialize all cores on
// the aux mutex just to count itself — that lock is for the small policy
// state, not the hot path.
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

// guardShard is one partition of replay protection. It is sharded with
// the same hash as the storage engine so two packets from the same
// device always serialize on the same lock, and packets from different
// devices almost never do.
type guardShard struct {
	mu    sync.Mutex
	guard *telemetry.ReplayGuard
	// accepted counts admissions under mu, which also covers their
	// memtable insert, so Store.cut reads a shard's series and its share of
	// Stats.Accepted together. Shard 0 starts from a restore's total.
	accepted uint64
}

// Store is the endpoint state: authenticated time-series per device plus
// the weekly-uptime ledger. Safe for concurrent use. The hot ingest path
// takes only its device's guard-shard lock and the matching storage
// shard lock; disposition counting is lock-free atomics; the aux mutex
// guards the small policy state (weeks, lapses, quarantine) for
// nanoseconds at a time.
type Store struct {
	keys   KeyResolver
	db     *tsdb.DB
	guards []*guardShard
	// scratch pools admission's working sets (admit.go). Per store, not
	// per process: a scratch caches verifiers built from this store's keys.
	scratch sync.Pool

	stats ingestCounters // lock-free; see IngestStats for the export form

	// batchFrames / batchFrameErrors count whole frames on the batched
	// ingest path (per-packet dispositions land in stats like any other
	// packet): admitted well-formed frames, and frames rejected at the
	// structural layer (torn, bad CRC, bad count).
	batchFrames      atomic.Uint64
	batchFrameErrors atomic.Uint64

	// rollups is the tiered-downsampling engine (nil = rollups
	// disabled). An atomic pointer because the ingest hot path reads it
	// per packet while boot (EnableRollups, ReadSnapshot) installs it;
	// see rollups.go for the fold protocol.
	rollups   atomic.Pointer[rollup.Engine]
	retainRaw time.Duration // raw tail width; set once by EnableRollups
	foldMu    sync.Mutex    // serializes FoldRollups against itself and against a checkpoint's cut

	// Checkpoint state (persist.go), owned by whoever holds saving: the
	// archive the last load or save left, the disk seam only tests
	// replace, the sealed-segment rotation size (0: the default), and what
	// the cloud_checkpoint_* metrics read.
	saving                               atomic.Bool
	arch                                 archive
	fs                                   ckptFS
	segmentBytes                         int64
	lastLoad                             LoadInfo
	ckptBytes, ckptBuckets, ckptFailures atomic.Uint64
	ckptSegments                         atomic.Int64
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

	mu    sync.Mutex     // aux state only; never held across db calls
	weeks map[int64]bool // week index -> data arrived

	// lapses are [from,to) windows when the endpoint was unreachable
	// (e.g. a lapsed domain lease).
	lapses []window

	// quarantined maps devices to the virtual time their trust was
	// revoked; see quarantine.go.
	quarantined map[lpwan.EUI64]time.Duration
}

type window struct{ from, to time.Duration }

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
		weeks:   make(map[int64]bool),
		fs:      osFS{},
	}
	s.guards = freshGuards(db.Shards())
	return s
}

func freshGuards(n int) []*guardShard {
	gs := make([]*guardShard, n)
	for i := range gs {
		gs[i] = &guardShard{guard: telemetry.NewReplayGuard(replayWindow)}
	}
	return gs
}

func (s *Store) guardFor(dev lpwan.EUI64) *guardShard {
	return s.guards[tsdb.ShardIndex(dev, len(s.guards))]
}

// DB exposes the underlying storage engine (for checkpointing, stats,
// and shutdown).
func (s *Store) DB() *tsdb.DB { return s.db }

// Close seals the storage engine's WALs.
func (s *Store) Close() error { return s.db.Close() }

// StorageStats returns the storage engine's summary.
func (s *Store) StorageStats() tsdb.Stats { return s.db.Stats() }

// AddLapse records a public-unreachability window (lease lapse, hosting
// failure). Packets arriving during a lapse are dropped: nobody was
// listening at the published name.
func (s *Store) AddLapse(from, to time.Duration) {
	if to <= from {
		panic("cloud: empty lapse window")
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.lapses = append(s.lapses, window{from, to})
}

func (s *Store) inLapseLocked(t time.Duration) bool {
	for _, w := range s.lapses {
		if t >= w.from && t < w.to {
			return true
		}
	}
	return false
}

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
	var folded time.Duration
	if r := s.rollups.Load(); r != nil {
		folded = r.FoldedBefore()
	}
	return s.db.Replay(func(pt tsdb.Point) bool {
		s.observeArrival(pt.At)
		p := packetOf(pt)
		gs := s.guardFor(p.Device)
		gs.mu.Lock()
		// Below the watermark: summarized in the checkpoint's buckets and
		// counted there. Refused by the guard: held already.
		keep := gs.guard.Record(p) && pt.At >= folded
		if keep {
			gs.accepted++
		}
		gs.mu.Unlock()
		if !keep {
			return false
		}
		s.stats.accepted.Add(1)
		s.mu.Lock()
		s.weeks[int64(pt.At/sim.Week)] = true
		s.mu.Unlock()
		return true
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
// (e.g. an accept counted but its week not yet ledgered) — at
// quiescence it is exact in full.
func (s *Store) Stats() IngestStats {
	return s.stats.snapshot()
}

// Devices returns the addresses with stored data, sorted.
func (s *Store) Devices() []lpwan.EUI64 {
	return s.db.Devices()
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
// [from, to), in arrival order — the storage engine's range query, used
// by the status page's windowed views.
func (s *Store) HistoryRange(dev lpwan.EUI64, from, to time.Duration) []Reading {
	it := s.db.Range(dev, from, to)
	out := make([]Reading, 0, it.Remaining())
	for it.Next() {
		out = append(out, readingOf(it.Point()))
	}
	return out
}

// Count returns the total accepted readings.
func (s *Store) Count() uint64 {
	return s.stats.accepted.Load()
}

// WeeklyUptime returns the paper's end-to-end metric over [0, horizon):
// the fraction of weeks in which at least one packet was accepted.
func (s *Store) WeeklyUptime(horizon time.Duration) float64 {
	total := int64(horizon / sim.Week)
	if total <= 0 {
		return 0
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	up := int64(0)
	for w := range s.weeks {
		if w < total {
			up++
		}
	}
	return float64(up) / float64(total)
}

// LongestGap returns the longest interval between consecutive accepted
// packets (across all devices) within [0, horizon), including the gap from
// the last packet to the horizon. It answers "how close did the
// experiment come to missing its weekly deadline".
//
// The k-way merge over per-device arrival runs (PR 5's O(n log k)
// replacement for flatten-and-sort) lives in internal/query now, shared
// with the per-device tier-walk queries; only the 8-byte times are
// copied out of the shards. Note this scans the RAW store: with rollups
// enabled it covers the raw tail only — use the query engine's
// LongestGap/TopGaps for the full sealed history.
func (s *Store) LongestGap(horizon time.Duration) time.Duration {
	return query.MergeLongestGap(s.db.TimesByDevice(), horizon)
}

// DomainLeaseSchedule returns the renewal deadlines the operators must
// meet over the horizon given the maximum lease term (10 years per ICANN,
// §4.5): one renewal at every multiple of the term.
func DomainLeaseSchedule(horizon time.Duration, maxTerm time.Duration) []time.Duration {
	if maxTerm <= 0 {
		panic("cloud: non-positive lease term")
	}
	var out []time.Duration
	for t := maxTerm; t < horizon; t += maxTerm {
		out = append(out, t)
	}
	return out
}
