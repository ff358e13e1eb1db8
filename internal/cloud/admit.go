package cloud

import (
	"errors"
	"fmt"
	"slices"
	"time"

	"centuryscale/internal/batch"
	"centuryscale/internal/sim"
	"centuryscale/internal/telemetry"
	"centuryscale/internal/tsdb"
)

// Admission: the one path by which a reading enters the store (DESIGN.md
// S42). A packet is a frame of one. POST /ingest/batch carries N packets
// and POST /ingest carries one; both become one pass of per-packet
// verification with no lock held, two short critical sections per
// touched guard shard (a lookup before it and the record after it, no
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
	// Rejected covers malformed, unknown-device and bad-signature
	// packets — refusals retrying cannot cure.
	Rejected int `json:"rejected"`
	// Stale packets arrived below the rollup fold watermark.
	Stale int `json:"stale"`
}

// ErrUnknownDevice is returned by Ingest for a device the KeyResolver
// refuses; its other refusals are ErrPersist, ErrSealed and the telemetry
// package's ErrReplay, ErrBadTag and ErrBadSize.
var ErrUnknownDevice = errors.New("cloud: unknown device")

// admitScratch is the pooled working set of one admission: the candidate
// packets, their one bucketing by guard shard, the points handed to the
// log, and the hasher that verifies under any device's pad state. Pooling
// these is what holds admission at 0 allocations in steady state — every
// buffer is reused. It holds nothing per device: that lives in the guard
// shards' records, once per store.
type admitScratch struct {
	cands  []candidate
	groups [][]int32 // indices into cands, one bucket per guard shard, in payload order
	order  []uint64  // one group as seq<<32 | index into cands, sorted for recording
	fresh  []tsdb.Point
	hasher *telemetry.Hasher
}

// candidate is one parsed packet on its way through admission.
type candidate struct {
	p    telemetry.Packet
	wire []byte  // a view into the payload
	rec  *device // the device's record as the lookup found it; nil if none
	// keyed says rec carried a pad state at the lookup; when it did not,
	// auth is the one built from the KeyResolver, which enrols with the
	// packet if it is admitted.
	keyed    bool
	auth     telemetry.Auth
	admitted bool
}

func newAdmitScratch() any {
	return &admitScratch{hasher: telemetry.NewHasher()}
}

func (s *Store) release(sc *admitScratch) {
	sc.cands = sc.cands[:0]
	for i := range sc.groups {
		sc.groups[i] = sc.groups[i][:0]
	}
	sc.fresh = sc.fresh[:0]
	s.scratch.Put(sc)
}

// Ingest verifies and stores one raw packet arriving at time at: a frame
// of one, with the packet's refusal, if any, as the error (ErrReplay,
// ErrSealed, ErrUnknownDevice, ErrBadTag, ErrBadSize, ErrPersist). On
// success the reading is as durable as the storage engine's fsync policy
// guarantees before Ingest returns — the acknowledgement contract.
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
// Ingest would; what the frame shares is the arrival stamp, the sealed
// check that depends only on it, and — the point — the WAL fsync.
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
//	parse → per guard shard, look up each device's record → verify with
//	no lock held → refuse while the log is failed → per guard shard
//	{sealed check, enrol, record in seq order, AppendDeferred,
//	accepted++, weeks ledger} → one flush barrier
//
// err is the outcome of the whole payload — ErrPersist when the flush
// that would acknowledge it failed — and means nothing in it is
// acknowledged. A packet's own refusal is counted in res and in the
// store's counters; when n == 1 it is also returned as refusal, the error
// Ingest reports, and is built only then so frames allocate nothing for
// it.
//
// Allocations: 0 per payload in steady state, measured by TestAdmitAllocBudgets.
func (s *Store) admit(at time.Duration, payload []byte, n int) (res BatchResult, refusal, err error) {
	res.Total = n
	sc := s.scratch.Get().(*admitScratch)
	defer s.release(sc)

	// Pass 1: structural parse, per packet, and one bucketing by shard.
	// Parse reads a subslice of the payload and copies out a fixed-size
	// Packet value — no allocation, nothing retains the payload's bytes
	// past this function. Guard shards and storage shards use the same
	// hash and count (NewStoreWithDB), so a bucket is one guard lock and
	// one storage-shard critical section.
	nsh := len(s.guards)
	if cap(sc.cands) < n {
		// Sized for the largest payload the scratch has met, so no buffer
		// grows packet by packet whatever the payload's spread over shards.
		sc.cands = make([]candidate, 0, n)
		sc.order = make([]uint64, 0, n)
		sc.fresh = make([]tsdb.Point, 0, n)
		sc.groups = make([][]int32, nsh)
		for i := range sc.groups {
			sc.groups[i] = make([]int32, 0, n)
		}
	}
	groups := sc.groups
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
		si := tsdb.ShardIndex(p.Device, nsh)
		groups[si] = append(groups[si], int32(len(sc.cands)))
		sc.cands = append(sc.cands, candidate{p: p, wire: wire})
	}

	// Pass 2: look up every packet's record, one lock per touched shard.
	for si, group := range groups {
		if len(group) == 0 {
			continue
		}
		gs := s.guards[si]
		gs.mu.Lock()
		for _, ci := range group {
			c := &sc.cands[ci]
			c.rec = gs.devices[c.p.Device]
			c.keyed = c.rec != nil && c.rec.keyed
		}
		gs.mu.Unlock()
	}

	// Pass 3: signature verification with no lock held. A record's pad
	// state is immutable once keyed is set, and keyed was read under the
	// shard lock, so reading the pad state here races nothing. A device
	// without one gets its pad state built from the KeyResolver into the
	// candidate; it joins the record only if the packet is admitted, so
	// forged traffic cannot grow memory.
	admissible := 0
	for si, group := range groups {
		kept := group[:0]
		for _, ci := range group {
			c := &sc.cands[ci]
			auth := &c.auth
			if c.keyed {
				auth = &c.rec.auth
			} else {
				key, ok := s.keys(c.p.Device)
				if !ok {
					s.stats.unknownDev.Add(1)
					res.Rejected++
					if n == 1 {
						refusal = fmt.Errorf("%w: %v", ErrUnknownDevice, c.p.Device)
					}
					continue
				}
				if err := sc.hasher.Pad(key, auth); err != nil {
					s.stats.badSignature.Add(1)
					res.Rejected++
					refusal = err
					continue
				}
			}
			if _, err := sc.hasher.Verify(auth, c.wire); err != nil {
				s.stats.badSignature.Add(1)
				res.Rejected++
				refusal = err
				continue
			}
			kept = append(kept, ci)
		}
		groups[si] = kept
		admissible += len(kept)
	}

	// While the log is failed, retry its flush before admitting anything
	// more: a payload that cannot be made durable is refused here, ahead of
	// the guard, so memory never runs ahead of the disk without bound.
	if err := s.db.Flush(0); err != nil {
		return res, nil, s.persistFailed(admissible, err)
	}

	// Pass 4: per guard shard — freshness, enrolment, deferred append and
	// the weeks ledger, all under that shard's lock and none of it I/O.
	// The log-buffer append and the memtable insert share the storage
	// shard's critical section, under the same guard lock as the windows
	// that admitted them, so guard, memtable, log and ledger move
	// together; only the acknowledgement waits, on the one flush barrier
	// after the loop: a packet whose flush failed is admitted but answered
	// ErrPersist, and its retry is a duplicate. barrier covers every
	// record this payload appended and, when it saw a duplicate, every
	// record appended so far: the duplicate's original was admitted under
	// this same guard lock, possibly by a payload still at its barrier,
	// and the gateway takes "duplicate" as its job done, so that answer is
	// an acknowledgement too.
	var barrier tsdb.LSN
	week := int64(at / sim.Week)
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
		if wm := s.rollups.Load().FoldedBefore(); at < wm {
			gs.mu.Unlock()
			k := len(group)
			s.stats.stale.Add(uint64(k))
			res.Stale += k
			if n == 1 {
				refusal = fmt.Errorf("%w: arrival %v precedes fold watermark %v", ErrSealed, at, wm)
			}
			continue
		}
		// Record the packets in ascending seq, payload order breaking
		// ties. Packets of different devices touch different windows, so
		// only each device's own order matters: its packets arrive in
		// ascending seq, and a packet's window holds only the payload's
		// lower seqs of its device, which cannot push it below the window.
		// So each packet is judged against the guard as it stood before
		// the payload plus the payload's own repeats: order inside a frame
		// means nothing (DESIGN.md S48).
		sc.order = sc.order[:0]
		for _, ci := range group {
			sc.order = append(sc.order, uint64(sc.cands[ci].p.Seq)<<32|uint64(ci))
		}
		slices.Sort(sc.order)
		for _, key := range sc.order {
			c := &sc.cands[uint32(key)]
			rec := c.rec
			if rec == nil {
				rec = gs.enrol(c.p.Device)
			}
			if !rec.keyed {
				rec.auth, rec.keyed = c.auth, true
			}
			if !rec.win.Record(c.p.Seq, replayWindow) {
				s.stats.duplicates.Add(1)
				res.Duplicates++
				if n == 1 {
					refusal = rec.win.Fresh(c.p.Seq, replayWindow)
				}
				barrier = s.db.LogEnd()
				continue
			}
			c.admitted = true
		}
		sc.fresh = sc.fresh[:0]
		for _, ci := range group {
			if c := &sc.cands[ci]; c.admitted {
				sc.fresh = append(sc.fresh, pointOf(at, c.p))
			}
		}
		if len(sc.fresh) > 0 {
			barrier = s.db.AppendDeferred(sc.fresh)
			gs.accepted += uint64(len(sc.fresh))
			gs.weeks[week] = struct{}{}
		}
		gs.mu.Unlock()
		res.Accepted += len(sc.fresh)
	}

	if res.Accepted > 0 {
		s.stats.accepted.Add(uint64(res.Accepted))
		s.observeArrival(at)
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
