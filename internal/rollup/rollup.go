// Package rollup is the read-side half of the storage engine's century
// story: tiered downsampling of raw points into hourly and daily
// aggregate buckets, computed incrementally at checkpoint time and
// persisted through the endpoint's snapshot machinery.
//
// The paper's premise is sensor data that outlives its writers, and the
// long-lived value of such data is aggregate questions — uptime, gaps,
// trends over decades (the CDBB digital-twin and Signpost city-sensing
// workloads). Keeping every raw point hot forever makes those questions
// linear scans over a half-century of appends; dropping old points makes
// them wrong. Rollups resolve the
// tension: every point older than the fold watermark is summarized —
// exactly once — into an hourly bucket carrying count/sum/min/max plus
// gap statistics (first/last arrival and the largest in-bucket
// inter-arrival gap), hourly buckets older than a day are additionally
// merged into daily buckets, and the raw points may then be dropped
// entirely. A windowed aggregate over any sealed span is answered from
// O(buckets) instead of O(points), and is bit-equal to the same
// aggregate computed from the raw points it replaced.
//
// Determinism is load-bearing: the fold sorts each device's drained
// points into a total order before summing, so two seed-identical runs
// produce byte-identical bucket state (and therefore byte-identical
// checkpoints), and a crash-reboot that re-folds replayed points
// converges on the same bytes. Nothing in this package reads the wall
// clock — bucketing is pure virtual-time Duration arithmetic, safe at
// the daily tier across 100-year spans (well inside the ±292-year
// int64 horizon centurylint enforces).
//
// The sealed region is immutable by contract: once the watermark has
// passed a bucket, no new point may land below it (internal/cloud
// refuses such arrivals before acknowledging them), so a bucket's bytes
// never change after the fold that completes it.
package rollup

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"centuryscale/internal/lpwan"
	"centuryscale/internal/tsdb"
)

// Defaults for Config zero values.
const (
	DefaultHourly = time.Hour
	DefaultDaily  = 24 * time.Hour
)

// Config fixes the two tier widths. The daily width must be a positive
// multiple of the hourly width; both are persisted with the bucket
// state, and Restore adopts the geometry the state records (re-bucketing
// summarized data exactly is impossible once the raw points are gone, so
// buckets are read at the widths they were folded at).
type Config struct {
	// Hourly is the fine tier's bucket width (default one hour).
	Hourly time.Duration
	// Daily is the coarse tier's bucket width (default 24 hours); it
	// must be a multiple of Hourly.
	Daily time.Duration
}

// Bucket is one aggregate bucket at some tier. Start is aligned to the
// tier width; only non-empty buckets are stored, so an absent bucket
// means "no point arrived in this span". First/Last/MaxGap are the gap
// statistics: together with its neighbors' Last/First, a walk over a
// tier reconstructs every inter-arrival gap in the sealed region
// exactly, without the points.
type Bucket struct {
	Start  time.Duration // tier-aligned bucket start
	Count  uint64        // points folded in
	Sum    float64       // sum of values, accumulated in sorted order
	Min    float32       // smallest value
	Max    float32       // largest value
	First  time.Duration // earliest arrival in the bucket
	Last   time.Duration // latest arrival in the bucket
	MaxGap time.Duration // largest gap between consecutive in-bucket arrivals
	MaxSeq uint32        // highest sequence number folded (replay-guard seed)
}

// addPoint folds one point into the bucket. Points must arrive in
// ascending (At, Seq) order within the bucket — the fold sorts.
func (b *Bucket) addPoint(p tsdb.Point) {
	if b.Count == 0 {
		b.Min, b.Max = p.Value, p.Value
		b.First, b.Last = p.At, p.At
	} else {
		if p.Value < b.Min {
			b.Min = p.Value
		}
		if p.Value > b.Max {
			b.Max = p.Value
		}
		if g := p.At - b.Last; g > b.MaxGap {
			b.MaxGap = g
		}
		b.Last = p.At
	}
	b.Count++
	b.Sum += float64(p.Value)
	if p.Seq > b.MaxSeq {
		b.MaxSeq = p.Seq
	}
}

// merge folds a later bucket into b (the daily-tier derivation). The
// argument's span must lie entirely after b's Last.
func (b *Bucket) merge(o Bucket) {
	if b.Count == 0 {
		start := b.Start
		*b = o
		b.Start = start
		return
	}
	if o.Count == 0 {
		return
	}
	if o.Min < b.Min {
		b.Min = o.Min
	}
	if o.Max > b.Max {
		b.Max = o.Max
	}
	if g := o.First - b.Last; g > b.MaxGap {
		b.MaxGap = g
	}
	if o.MaxGap > b.MaxGap {
		b.MaxGap = o.MaxGap
	}
	b.Last = o.Last
	b.Count += o.Count
	b.Sum += o.Sum
	if o.MaxSeq > b.MaxSeq {
		b.MaxSeq = o.MaxSeq
	}
}

// devState is one device's tiers: sorted, non-overlapping, non-empty
// buckets. Hourly covers [0, FoldedBefore); Daily covers the hourly
// buckets below DailyFoldedBefore, 24 at a time.
type devState struct {
	hourly []Bucket
	daily  []Bucket
}

// Engine holds the per-device tier state. All methods are safe for
// concurrent use; the fold serializes against itself and against
// readers on one mutex (folds are checkpoint-cadence rare, and a
// reader's copy of a device's tiers is a small memcpy).
type Engine struct {
	cfg Config

	// folded is FoldedBefore in nanoseconds, readable lock-free: the
	// ingest hot path checks every arrival stamp against it.
	folded atomic.Int64

	mu          sync.Mutex
	dailyFolded time.Duration
	dev         map[lpwan.EUI64]*devState
	staleDrops  atomic.Uint64 // points below the watermark refused by Fold (invariant breach guard)
}

// New returns an empty engine. Zero widths take the defaults; the
// geometry is then held to Restore's rules.
func New(cfg Config) (*Engine, error) {
	if cfg.Hourly == 0 {
		cfg.Hourly = DefaultHourly
	}
	if cfg.Daily == 0 {
		cfg.Daily = DefaultDaily
	}
	return Restore(EngineState{Config: cfg})
}

// Config returns the engine's normalized tier geometry.
func (e *Engine) Config() Config { return e.cfg }

// FoldedBefore is the fold watermark: every point with At below it has
// been summarized into the hourly tier (and the raw copy may be gone).
// Lock-free — the ingest path reads it per packet.
func (e *Engine) FoldedBefore() time.Duration {
	return time.Duration(e.folded.Load())
}

// DailyFoldedBefore is the coarse watermark: hourly buckets below it
// have been merged into daily buckets.
func (e *Engine) DailyFoldedBefore() time.Duration {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.dailyFolded
}

// StaleDrops counts points Fold refused because they were below the
// already-published watermark. Non-zero means the caller's sealed-
// region admission barrier has a hole; the crash-safety suite asserts
// it stays zero.
func (e *Engine) StaleDrops() uint64 { return e.staleDrops.Load() }

// AlignDown truncates t to a multiple of width.
func AlignDown(t, width time.Duration) time.Duration {
	if t < 0 {
		return 0
	}
	return t - t%width
}

// Advance publishes a new fold watermark WITHOUT folding anything yet.
// The caller's protocol (see cloud.Store.FoldRollups) is: publish the
// watermark, run a barrier over the ingest admission locks so no
// in-flight append straddles it, then drain the storage engine below
// the watermark and hand the drained points to Fold. upTo is clamped
// down to the hourly grid; a watermark never moves backwards.
func (e *Engine) Advance(upTo time.Duration) time.Duration {
	upTo = AlignDown(upTo, e.cfg.Hourly)
	for {
		cur := e.folded.Load()
		if int64(upTo) <= cur {
			return time.Duration(cur)
		}
		if e.folded.CompareAndSwap(cur, int64(upTo)) {
			return upTo
		}
	}
}

// Fold summarizes drained raw points into the hourly tier and then
// derives any newly completable daily buckets. Every point must lie
// below the published watermark (that is what DrainBelow guarantees)
// and at or above the previous watermark (what the sealed-region
// admission check guarantees); a point below an already-folded bucket
// would double-count, so it is dropped and counted in StaleDrops
// instead of corrupting a sealed bucket.
//
// The fold is deterministic: each device's batch is sorted by
// (At, Seq, Sensor, value bits) — a total order over distinct points —
// before accumulation, so the floating-point sums and gap statistics
// are byte-stable across runs and across crash-replay-refold cycles.
//
// Allocations: 3 per device batch, whatever its size, measured by TestFoldAllocBudget.
func (e *Engine) Fold(drained []tsdb.DrainedSeries) (folded int) {
	e.mu.Lock()
	defer e.mu.Unlock()
	watermark := time.Duration(e.folded.Load())
	for _, ds := range drained {
		pts := ds.Points
		if len(pts) == 0 {
			continue
		}
		sortPoints(pts)
		st := e.dev[ds.Device]
		if st == nil {
			st = &devState{}
			e.dev[ds.Device] = st
		}
		sealedBelow := e.dailyFolded // hourly below this is already in daily buckets
		if n := len(st.hourly); n > 0 {
			if end := st.hourly[n-1].Start + e.cfg.Hourly; end > sealedBelow {
				sealedBelow = end
			}
		}
		for _, p := range pts {
			if p.At >= watermark {
				continue // not sealed yet; the drain should not have included it
			}
			start := AlignDown(p.At, e.cfg.Hourly)
			n := len(st.hourly)
			switch {
			case n > 0 && st.hourly[n-1].Start == start:
				st.hourly[n-1].addPoint(p)
			case start < sealedBelow:
				// Below a bucket that is already complete: folding it in
				// would change sealed bytes and double-count the point
				// against a span the query layer may have served.
				e.staleDrops.Add(1)
				continue
			default:
				st.hourly = append(st.hourly, Bucket{Start: start})
				st.hourly[n].addPoint(p)
			}
			folded++
		}
	}
	e.deriveDailyLocked(time.Duration(e.folded.Load()))
	return folded
}

// deriveDailyLocked merges hourly buckets below AlignDown(watermark,
// Daily) into daily buckets. Called with e.mu held.
func (e *Engine) deriveDailyLocked(watermark time.Duration) {
	upTo := AlignDown(watermark, e.cfg.Daily)
	if upTo <= e.dailyFolded {
		return
	}
	from := e.dailyFolded
	for _, st := range e.dev {
		// Hourly buckets are sorted; find the [from, upTo) run.
		lo := sort.Search(len(st.hourly), func(i int) bool { return st.hourly[i].Start >= from })
		hi := sort.Search(len(st.hourly), func(i int) bool { return st.hourly[i].Start >= upTo })
		for _, hb := range st.hourly[lo:hi] {
			day := AlignDown(hb.Start, e.cfg.Daily)
			n := len(st.daily)
			if n == 0 || st.daily[n-1].Start != day {
				st.daily = append(st.daily, Bucket{Start: day})
				n++
			}
			st.daily[n-1].merge(hb)
		}
	}
	e.dailyFolded = upTo
}

// sortPoints orders a batch into the fold's total order.
func sortPoints(pts []tsdb.Point) {
	sort.Slice(pts, func(i, j int) bool {
		a, b := pts[i], pts[j]
		if a.At != b.At {
			return a.At < b.At
		}
		if a.Seq != b.Seq {
			return a.Seq < b.Seq
		}
		if a.Sensor != b.Sensor {
			return a.Sensor < b.Sensor
		}
		return a.Value < b.Value
	})
}

// Series returns copies of one device's tiers (hourly, daily), each
// sorted by Start. Nil slices mean no sealed data for the device.
func (e *Engine) Series(dev lpwan.EUI64) (hourly, daily []Bucket) {
	e.mu.Lock()
	defer e.mu.Unlock()
	st := e.dev[dev]
	if st == nil {
		return nil, nil
	}
	return append([]Bucket(nil), st.hourly...), append([]Bucket(nil), st.daily...)
}

// SeriesView returns one device's tiers WITHOUT copying — the read-path
// fast lane (a century of hourly buckets is ~1M entries; copying that
// per query would cost more than the query). Safe because sealed
// buckets are append-only: a fold only ever appends new buckets and
// mutates buckets it created in the same call, beyond the length any
// earlier view captured, so a returned slice is an immutable snapshot
// of the tiers as of the call. Callers must not modify the buckets.
func (e *Engine) SeriesView(dev lpwan.EUI64) (hourly, daily []Bucket) {
	e.mu.Lock()
	defer e.mu.Unlock()
	st := e.dev[dev]
	if st == nil {
		return nil, nil
	}
	return st.hourly, st.daily
}

// Devices returns every device with sealed buckets, sorted by address.
func (e *Engine) Devices() []lpwan.EUI64 {
	e.mu.Lock()
	defer e.mu.Unlock()
	out := make([]lpwan.EUI64, 0, len(e.dev))
	for d := range e.dev {
		out = append(out, d)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Uint64() < out[j].Uint64() })
	return out
}

// Buckets counts stored buckets per tier — the engine's memory story.
func (e *Engine) Buckets() (hourly, daily int) {
	e.mu.Lock()
	defer e.mu.Unlock()
	for _, st := range e.dev {
		hourly += len(st.hourly)
		daily += len(st.daily)
	}
	return hourly, daily
}

// DeviceState is one device's exported tier state.
type DeviceState struct {
	Device lpwan.EUI64
	Hourly []Bucket
	Daily  []Bucket
}

// EngineState is the engine's full exported state: what a checkpoint
// persists. Devices are sorted by address and buckets by Start, so the
// same tier state always exports the same bytes.
type EngineState struct {
	Config            Config
	FoldedBefore      time.Duration
	DailyFoldedBefore time.Duration
	Devices           []DeviceState
}

// Snapshot deep-copies the engine state in deterministic order.
func (e *Engine) Snapshot() EngineState { return e.ExportSince(0, 0) }

// ExportSince is Snapshot restricted to what a delta checkpoint still has
// to write: hourly buckets starting at or above hourlyFrom, daily ones at
// or above dailyFrom (the watermarks of the last durable export; zero for
// everything), devices with neither omitted. Watermarks and buckets are
// read under one lock, and every stored bucket lies below its watermark.
func (e *Engine) ExportSince(hourlyFrom, dailyFrom time.Duration) EngineState {
	e.mu.Lock()
	defer e.mu.Unlock()
	st := EngineState{
		Config:            e.cfg,
		FoldedBefore:      time.Duration(e.folded.Load()),
		DailyFoldedBefore: e.dailyFolded,
		Devices:           make([]DeviceState, 0, len(e.dev)),
	}
	for d, ds := range e.dev {
		h := ds.hourly[firstFrom(ds.hourly, hourlyFrom):]
		dd := ds.daily[firstFrom(ds.daily, dailyFrom):]
		if len(h)+len(dd) == 0 {
			continue
		}
		st.Devices = append(st.Devices, DeviceState{
			Device: d,
			Hourly: append([]Bucket(nil), h...),
			Daily:  append([]Bucket(nil), dd...),
		})
	}
	sort.Slice(st.Devices, func(i, j int) bool {
		return st.Devices[i].Device.Uint64() < st.Devices[j].Device.Uint64()
	})
	return st
}

// firstFrom is the index of the first bucket starting at or above from.
func firstFrom(bs []Bucket, from time.Duration) int {
	return sort.Search(len(bs), func(i int) bool { return bs[i].Start >= from })
}

// Restore builds an engine from exported state at the geometry the state
// records: both widths positive, daily a multiple of hourly. Like the
// buckets (checkTier), the watermarks must be ones the engine could have
// produced: on their tier's grid, not negative, and the daily one not
// above the hourly one.
func Restore(st EngineState) (*Engine, error) {
	cfg := st.Config
	if cfg.Hourly <= 0 || cfg.Daily <= 0 {
		return nil, fmt.Errorf("rollup: tier widths must be positive (hourly %v, daily %v)", cfg.Hourly, cfg.Daily)
	}
	if cfg.Daily%cfg.Hourly != 0 {
		return nil, fmt.Errorf("rollup: daily width %v is not a multiple of hourly width %v", cfg.Daily, cfg.Hourly)
	}
	if st.FoldedBefore < 0 || st.FoldedBefore%cfg.Hourly != 0 || st.DailyFoldedBefore < 0 ||
		st.DailyFoldedBefore%cfg.Daily != 0 || st.DailyFoldedBefore > st.FoldedBefore {
		return nil, fmt.Errorf("rollup: watermarks %v (hourly) and %v (daily) are off the %v/%v grid or out of order",
			st.FoldedBefore, st.DailyFoldedBefore, cfg.Hourly, cfg.Daily)
	}
	e := &Engine{cfg: cfg, dev: make(map[lpwan.EUI64]*devState)}
	e.folded.Store(int64(st.FoldedBefore))
	e.dailyFolded = st.DailyFoldedBefore
	for _, ds := range st.Devices {
		if err := checkTier(ds.Hourly, e.cfg.Hourly, st.FoldedBefore); err != nil {
			return nil, fmt.Errorf("rollup: device %v hourly tier: %w", ds.Device, err)
		}
		if err := checkTier(ds.Daily, e.cfg.Daily, st.DailyFoldedBefore); err != nil {
			return nil, fmt.Errorf("rollup: device %v daily tier: %w", ds.Device, err)
		}
		e.dev[ds.Device] = &devState{
			hourly: append([]Bucket(nil), ds.Hourly...),
			daily:  append([]Bucket(nil), ds.Daily...),
		}
	}
	return e, nil
}

// checkTier refuses buckets the engine could not have produced; queries
// binary-search the tiers and would answer wrongly instead of failing.
func checkTier(bs []Bucket, width, sealedBelow time.Duration) error {
	prev := time.Duration(-1)
	for _, b := range bs {
		if b.Count == 0 || b.Start < 0 || b.Start%width != 0 || b.Start <= prev || b.Start >= sealedBelow {
			return fmt.Errorf("bucket at %v (count %d) is empty, off the %v grid, out of order or not below the watermark %v", b.Start, b.Count, width, sealedBelow)
		}
		prev = b.Start
	}
	return nil
}

// MaxSeq returns the highest sequence number folded for dev (0 if none):
// the seed for rebuilding replay protection over records whose raw
// copies are gone.
func (e *Engine) MaxSeq(dev lpwan.EUI64) uint32 {
	e.mu.Lock()
	defer e.mu.Unlock()
	st := e.dev[dev]
	if st == nil {
		return 0
	}
	var max uint32
	for _, b := range st.hourly {
		if b.MaxSeq > max {
			max = b.MaxSeq
		}
	}
	for _, b := range st.daily {
		if b.MaxSeq > max {
			max = b.MaxSeq
		}
	}
	return max
}
