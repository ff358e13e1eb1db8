package cloud

import (
	"errors"
	"fmt"
	"time"

	"centuryscale/internal/batch"
	"centuryscale/internal/lpwan"
	"centuryscale/internal/sim"
	"centuryscale/internal/telemetry"
	"centuryscale/internal/tsdb"
)

// Admission: the one path by which a reading enters the store (DESIGN.md
// S42). A packet is a frame of one. POST /ingest/batch carries N packets
// and POST /ingest carries one; both become one pass of per-packet
// verification, one short critical section per touched guard shard (no
// I/O inside), and one WAL flush barrier however many shards were
// touched. No packet is acknowledged until the flush covering it has
// returned.

// BatchResult summarizes one frame's disposition, echoed as the 202
// response body so the gateway can reconcile its counters.
type BatchResult struct {
	// Total is the packet count the frame declared.
	Total int `json:"total"`
	// Accepted packets are verified and stored — and, when IngestBatch
	// returned a nil error with the result, flushed: acknowledgeable.
	Accepted int `json:"accepted"`
	// Duplicates covers replay-guard rejects and intra-frame repeats.
	Duplicates int `json:"duplicates"`
	// Rejected covers malformed, unknown-device, bad-signature, and
	// quarantined packets — refusals retrying cannot cure.
	Rejected int `json:"rejected"`
	// Stale packets arrived below the rollup fold watermark.
	Stale int `json:"stale"`
}

// Errors from Ingest, beside ErrPersist, ErrSealed, ErrQuarantined and
// the telemetry package's ErrReplay, ErrBadTag and ErrBadSize.
var (
	ErrUnknownDevice = errors.New("cloud: unknown device")
	ErrLeaseLapsed   = errors.New("cloud: endpoint unreachable (lease lapsed)")
)

// devSeq keys the intra-frame dedup map: two packets with the same
// device and sequence number inside one frame would both pass the
// replay guard's non-mutating Check, so the frame loop must
// remember what it has already admitted this frame.
type devSeq struct {
	dev uint64
	seq uint32
}

// admitScratch is the pooled working set of one admission: candidate
// packets, their one bucketing by shard, the points handed to the log,
// and the intra-frame dedup map. Pooling these is what holds admission at
// 0 allocations in steady state — every buffer is reused.
type admitScratch struct {
	cands  []telemetry.Packet
	wires  [][]byte             // wire bytes of cands, parallel; views into the payload
	groups [][]telemetry.Packet // admissible packets, one bucket per guard shard
	fresh  []tsdb.Point
	seen   map[devSeq]struct{}
	// verifiers caches one keyed HMAC state per device across the
	// scratch's lifetime — keys never rotate (burned in at manufacture),
	// so the cache is only ever warm, never wrong, for the one store whose
	// KeyResolver filled it: the pool belongs to the Store (F8). It
	// survives release() because rebuilding it is the expensive part.
	verifiers map[lpwan.EUI64]*telemetry.Verifier
}

// maxCachedVerifiers bounds one scratch's verifier cache; past it the
// cache resets rather than tracking an unbounded fleet per scratch.
const maxCachedVerifiers = 4096

func newAdmitScratch() any {
	return &admitScratch{
		seen:      make(map[devSeq]struct{}, 64),
		verifiers: make(map[lpwan.EUI64]*telemetry.Verifier, 64),
	}
}

func (s *Store) release(sc *admitScratch) {
	sc.cands = sc.cands[:0]
	sc.wires = sc.wires[:0]
	for i := range sc.groups {
		sc.groups[i] = sc.groups[i][:0]
	}
	sc.fresh = sc.fresh[:0]
	clear(sc.seen)
	if len(sc.verifiers) > maxCachedVerifiers {
		clear(sc.verifiers)
	}
	s.scratch.Put(sc)
}

// Ingest verifies and stores one raw packet arriving at time at: a frame
// of one, with the packet's refusal, if any, as the error (ErrReplay,
// ErrSealed, ErrQuarantined, ErrUnknownDevice, ErrBadTag, ErrBadSize,
// ErrLeaseLapsed, ErrPersist). On success the reading is as durable as
// the storage engine's fsync policy guarantees before Ingest returns —
// the acknowledgement contract.
//
// Allocations: 0 per packet in steady state, measured by TestAdmitAllocBudgets.
func (s *Store) Ingest(at time.Duration, wire []byte) error {
	o := s.obs.Load()
	var start time.Duration
	if o != nil {
		// Measured without defer: a closure capture here would put an
		// allocation on every packet.
		start = o.latency.Now()
	}
	_, refusal, err := s.admit(at, wire, 1)
	if o != nil {
		o.latency.ObserveSince(start)
	}
	if err != nil {
		return err
	}
	return refusal
}

// IngestBatch verifies and stores a frame of packets arriving together
// at time at. Every packet is authenticated individually, exactly as
// Ingest would; what the frame shares is the arrival stamp, the policy
// checks that depend only on it, and — the point — the WAL fsync.
//
// Error semantics: a non-nil error means the caller must NOT treat the
// frame as acknowledged. ErrPersist reports that the frame's flush
// failed: its packets are admitted (readable, and flushed by the next
// flush that succeeds) but not yet on disk, so the sender retries the
// whole frame, the replay guards find every packet a duplicate, and the
// retry is acknowledged only once a flush has covered them. Frame-
// structure errors (torn, bad CRC) reject before any packet is examined.
// A per-packet refusal (bad signature, duplicate) is not an error; it is
// counted in the result.
func (s *Store) IngestBatch(at time.Duration, frame []byte) (BatchResult, error) {
	o := s.obs.Load()
	timed := o != nil && o.batchLatency != nil
	var start time.Duration
	if timed {
		start = o.batchLatency.Now()
	}
	var res BatchResult
	payload, n, err := batch.Split(frame, 0)
	if err != nil {
		s.batchFrameErrors.Add(1)
	} else {
		s.batchFrames.Add(1)
		res, _, err = s.admit(at, payload, n)
	}
	if timed {
		o.batchLatency.ObserveSince(start)
	}
	return res, err
}

// admit is the admission contract, stated once: payload holds n packets
// that arrived together at time at (a lone packet is its own payload,
// whatever its length; a frame's payload is what batch.Split returned).
//
//	parse → verify → lapse/quarantine policy → refuse while the log is
//	failed → per guard shard {sealed check, intra-frame dedup, Check,
//	AppendDeferred, Record, accepted++} → weeks ledger → one flush barrier
//
// err is the outcome of the whole payload — ErrLeaseLapsed, or ErrPersist
// when the flush that would acknowledge it failed — and means nothing in
// it is acknowledged. A packet's own refusal is counted in res and in the
// store's counters; when n == 1 it is also returned as refusal, the error
// Ingest reports, and is built only then so frames allocate nothing for
// it.
//
// Allocations: 0 per payload in steady state, measured by TestAdmitAllocBudgets.
func (s *Store) admit(at time.Duration, payload []byte, n int) (res BatchResult, refusal, err error) {
	res.Total = n
	sc := s.scratch.Get().(*admitScratch)
	defer s.release(sc)

	// Pass 1: structural parse, per packet. Parse reads a subslice of
	// the payload and copies out a fixed-size Packet value — no
	// allocation, nothing retains the payload's bytes past this function.
	for i := 0; i < n; i++ {
		wire := payload
		if n > 1 {
			wire = batch.Packet(payload, i)
		}
		p, err := telemetry.Parse(wire)
		if err != nil {
			s.stats.malformed.Add(1)
			res.Rejected++
			refusal = err
			continue
		}
		sc.cands = append(sc.cands, p)
		sc.wires = append(sc.wires, wire)
	}

	// Pass 1b: signature verification over the candidates, through the
	// per-device verifier cache — a cache miss builds one reusable keyed
	// HMAC state, a hit verifies with zero allocation.
	verified := sc.cands[:0]
	for ci, p := range sc.cands {
		ver := sc.verifiers[p.Device]
		if ver == nil {
			key, ok := s.keys(p.Device)
			if !ok {
				s.stats.unknownDev.Add(1)
				res.Rejected++
				if n == 1 {
					refusal = fmt.Errorf("%w: %v", ErrUnknownDevice, p.Device)
				}
				continue
			}
			v, err := telemetry.NewVerifier(key)
			if err != nil {
				s.stats.badSignature.Add(1)
				res.Rejected++
				refusal = err
				continue
			}
			ver = v
			sc.verifiers[p.Device] = ver
		}
		if _, err := ver.Verify(sc.wires[ci]); err != nil {
			s.stats.badSignature.Add(1)
			res.Rejected++
			refusal = err
			continue
		}
		verified = append(verified, p)
	}
	sc.cands = verified

	// Pass 2: arrival-time policy under one aux-lock acquisition for the
	// whole payload. A lapse rejects everything (nobody was listening at
	// the published name); quarantine is per device. Survivors are
	// bucketed by shard here, once: guard shards and storage shards use
	// the same hash and count (freshGuards(db.Shards())), so a bucket is
	// one guard lock and one storage-shard critical section.
	nsh := len(s.guards)
	if cap(sc.groups) < nsh {
		sc.groups = make([][]telemetry.Packet, nsh)
	}
	groups := sc.groups[:nsh]
	s.mu.Lock()
	if s.inLapseLocked(at) {
		s.mu.Unlock()
		k := len(sc.cands)
		s.stats.leaseLapsed.Add(uint64(k))
		res.Rejected += k
		return res, nil, ErrLeaseLapsed
	}
	admissible := 0
	for _, p := range sc.cands {
		if s.quarantinedLocked(p.Device, at) {
			s.stats.quarantined.Add(1)
			res.Rejected++
			if n == 1 {
				refusal = fmt.Errorf("%w: %v", ErrQuarantined, p.Device)
			}
			continue
		}
		si := tsdb.ShardIndex(p.Device, nsh)
		groups[si] = append(groups[si], p)
		admissible++
	}
	s.mu.Unlock()

	// While the log is failed, retry its flush before admitting anything
	// more: a payload that cannot be made durable is refused here, ahead of
	// the guard, so memory never runs ahead of the disk without bound.
	if err := s.db.Flush(0); err != nil {
		return res, nil, s.persistFailed(admissible, err)
	}

	// Pass 3: per guard shard — freshness, deferred append, admission,
	// all under that shard's lock and none of it I/O. The log-buffer
	// append and the memtable insert share the storage shard's critical
	// section, and Record follows under the same guard lock, so guard,
	// memtable and log move together; only the acknowledgement waits, on
	// the one flush barrier after the loop: a packet whose flush failed is
	// admitted but answered ErrPersist, and its retry is a duplicate.
	// barrier covers every record this payload appended and, when it saw
	// a duplicate, every record appended so far: the duplicate's original
	// was admitted under this same guard lock, possibly by a frame still
	// at its barrier, and the gateway takes "duplicate" as its job done,
	// so that answer is an acknowledgement too.
	var barrier tsdb.LSN
	for si, group := range groups {
		if len(group) == 0 {
			continue
		}
		gs := s.guards[si]
		gs.mu.Lock()
		// Sealed-region check under the guard lock: FoldRollups publishes
		// the watermark and then takes every guard lock once (the
		// barrier), so any append that saw the old watermark has committed
		// before the drain runs — no packet can slip between "summarized"
		// and "raw".
		if r := s.rollups.Load(); r != nil {
			if wm := r.FoldedBefore(); at < wm {
				gs.mu.Unlock()
				k := len(group)
				s.stats.stale.Add(uint64(k))
				res.Stale += k
				if n == 1 {
					refusal = fmt.Errorf("%w: arrival %v precedes fold watermark %v", ErrSealed, at, wm)
				}
				continue
			}
		}
		sc.fresh = sc.fresh[:0]
		for _, p := range group {
			k := devSeq{p.Device.Uint64(), p.Seq}
			if _, dup := sc.seen[k]; dup {
				s.stats.duplicates.Add(1)
				res.Duplicates++
				continue
			}
			if !gs.guard.Check(p) {
				s.stats.duplicates.Add(1)
				res.Duplicates++
				if n == 1 {
					refusal = gs.guard.Fresh(p)
				}
				barrier = s.db.LogEnd()
				continue
			}
			sc.seen[k] = struct{}{}
			sc.fresh = append(sc.fresh, pointOf(at, p))
		}
		if len(sc.fresh) > 0 {
			barrier = s.db.AppendDeferred(sc.fresh)
			for _, pt := range sc.fresh {
				// Check judged every packet against the guard as it stood
				// before the payload (order inside a frame means nothing),
				// so Record refuses one only when this payload pushed it
				// below the window: a device's packets reordered by more
				// than the window. It is stored all the same.
				gs.guard.Record(packetOf(pt))
			}
			gs.accepted += uint64(len(sc.fresh))
		}
		gs.mu.Unlock()
		res.Accepted += len(sc.fresh)
	}

	if res.Accepted > 0 {
		s.stats.accepted.Add(uint64(res.Accepted))
		s.observeArrival(at)
		s.mu.Lock()
		s.weeks[int64(at/sim.Week)] = true
		s.mu.Unlock()
	}
	if err := s.db.Flush(barrier); err != nil {
		// Refused acknowledgement: what was admitted, and the duplicates
		// whose originals the flush would have covered.
		return res, nil, s.persistFailed(res.Accepted+res.Duplicates, err)
	}
	return res, refusal, nil
}

// persistFailed counts n packets refused acknowledgement by a failed
// flush and wraps the cause as ErrPersist.
func (s *Store) persistFailed(n int, err error) error {
	s.stats.persistFailures.Add(uint64(n))
	return fmt.Errorf("%w: %v", ErrPersist, err)
}

// BatchFrames reports how many well-formed frames IngestBatch has
// admitted; with GroupCommits and Accepted it gives the realized
// batching factor.
func (s *Store) BatchFrames() uint64 { return s.batchFrames.Load() }
