// Package query is the read side's front door: a streaming query layer
// over the rollup tiers plus the raw tail. Windowed aggregation picks
// the coarsest tier that covers each part of the window — daily buckets
// for the daily-aligned middle of the sealed region, hourly buckets for
// its edges, raw points above the fold watermark — and stitches gap
// statistics across the seams, so a dashboard question over a century
// of data costs O(buckets in window), not O(points ever stored).
//
// The layer is deliberately storage-agnostic: it reads through the
// small Source interface, so the same engine serves the endpoint's
// in-process store and tests over a bare tsdb.DB.
// Everything here is pure virtual-time arithmetic — no wall clock.
package query

import (
	"cmp"
	"errors"
	"fmt"
	"slices"
	"sort"
	"time"

	"centuryscale/internal/lpwan"
	"centuryscale/internal/rollup"
	"centuryscale/internal/tsdb"
)

// ErrBadWindow rejects non-positive steps and empty or negative ranges.
var ErrBadWindow = errors.New("query: window range must be non-empty with a positive step")

// Source is what the query engine reads. Cut returns one device's cut
// over [from, to); every query reads exactly one cut per device, so the
// source decides what a consistent instant means (the endpoint's store
// takes the cut under the read side of its fold lock). Devices lists
// every device the source holds readings of, raw or folded.
type Source interface {
	Cut(dev lpwan.EUI64, from, to time.Duration) Cut
	Devices() []lpwan.EUI64
}

// Cut is one device's read state at one instant: the fold watermarks,
// the tier widths, both bucket tiers and the raw points above the fold.
// Before the first fold the watermarks are zero and the tiers empty.
// The bucket slices are read-only views; Raw must not be used after
// Release, which returns its pooled buffer.
type Cut struct {
	Folded, DailyFolded     time.Duration // rollup.Engine.FoldedBefore, DailyFoldedBefore
	HourlyWidth, DailyWidth time.Duration
	Hourly, Daily           []rollup.Bucket
	Raw                     []tsdb.Point // At in [max(from, Folded), to), sorted by (At, Seq)
	Release                 func()
}

// ReadCut reads one device's cut from a rollup engine and the raw store.
// It takes no lock of its own: a caller whose store folds concurrently
// must hold the fold off until it returns, or the watermark and the
// buckets can come from either side of the fold.
func ReadCut(r *rollup.Engine, db *tsdb.DB, dev lpwan.EUI64, from, to time.Duration) Cut {
	cfg := r.Config()
	c := Cut{Folded: r.FoldedBefore(), DailyFolded: r.DailyFoldedBefore(), HourlyWidth: cfg.Hourly, DailyWidth: cfg.Daily}
	c.Hourly, c.Daily = r.SeriesView(dev)
	c.Raw, c.Release = db.RangeSlice(dev, max(from, c.Folded), to)
	// Arrival order is not guaranteed At-sorted across restarts; every
	// walk over the cut needs a single sorted pass.
	slices.SortFunc(c.Raw, func(a, b tsdb.Point) int {
		return cmp.Or(cmp.Compare(a.At, b.At), cmp.Compare(a.Seq, b.Seq))
	})
	return c
}

// Engine answers aggregate queries through a Source.
type Engine struct {
	Src Source
}

// WindowAgg is one window's aggregate. MaxGap is the largest interval
// inside [Start, Start+step) with no arrival, counting the run-in from
// the window start to the first arrival and the run-out from the last
// arrival to the window end; an empty window's MaxGap is the full step.
type WindowAgg struct {
	Start  time.Duration
	Count  uint64
	Sum    float64
	Min    float32
	Max    float32
	MaxGap time.Duration
}

// TierHits counts what each tier contributed to a query — the
// observability hook proving tier selection actually engaged (a century
// query that reports millions of raw hits is a selection bug).
type TierHits struct {
	Daily  int // daily buckets consumed
	Hourly int // hourly buckets consumed
	Raw    int // raw points consumed
}

// Windows streams aggregates over [from, to) in consecutive windows of
// width step, starting at from. The final window is a full step wide
// even when it extends past to — windows are a grid, not a clamp.
//
// Tier-selection rule, per window [ws, we): the sealed part
// [ws, min(we, FoldedBefore)) is answered from buckets — daily buckets
// for the daily-aligned middle, hourly for the edges — and the raw tail
// [max(ws, FoldedBefore), we) from raw points. Bucket boundaries must
// coincide with window boundaries inside the sealed region for the
// answer to be exact, so when from < FoldedBefore both from and step
// must be multiples of the hourly tier width.
//
// The iterator is a streaming cursor over one cut (so the result is
// consistent even while ingest and folds continue), walking every tier
// monotonically. Close releases the pooled raw buffer.
func (e *Engine) Windows(dev lpwan.EUI64, from, to, step time.Duration) (*WindowIter, error) {
	if step <= 0 || to <= from || from < 0 {
		return nil, ErrBadWindow
	}
	c := e.Src.Cut(dev, from, to)
	if from < c.Folded && (from%c.HourlyWidth != 0 || step%c.HourlyWidth != 0) {
		c.Release()
		return nil, fmt.Errorf("query: window boundaries below the fold watermark (%v) must align to the hourly tier (%v): from=%v step=%v", c.Folded, c.HourlyWidth, from, step)
	}
	return &WindowIter{c: c, to: to, step: step, cur: from}, nil
}

// WindowIter streams WindowAggs. Usage:
//
//	it, err := eng.Windows(dev, 0, horizon, sim.Week)
//	defer it.Close()
//	for it.Next() {
//		w := it.Window()
//		...
//	}
type WindowIter struct {
	c          Cut
	to, step   time.Duration
	hi, di, ri int
	cur        time.Duration
	w          WindowAgg
	tiers      TierHits
}

// Next computes the next window, reporting whether one was produced.
func (it *WindowIter) Next() bool {
	if it.cur >= it.to {
		return false
	}
	ws := it.cur
	we := ws + it.step
	it.cur = we
	a := acc{prev: ws}

	// Sealed part: buckets, coarsest tier first where alignment allows.
	c := &it.c
	if se := min(we, c.Folded); ws < se {
		dlo := alignUp(ws, c.DailyWidth)
		dhi := min(alignDown(se, c.DailyWidth), c.DailyFolded)
		if dlo < dhi {
			consume(&a, c.Hourly, &it.hi, &it.tiers.Hourly, ws, dlo)
			consume(&a, c.Daily, &it.di, &it.tiers.Daily, dlo, dhi)
			consume(&a, c.Hourly, &it.hi, &it.tiers.Hourly, dhi, se)
		} else {
			consume(&a, c.Hourly, &it.hi, &it.tiers.Hourly, ws, se)
		}
	}

	// Raw tail: the cursor is monotone because windows are.
	for ; it.ri < len(c.Raw) && c.Raw[it.ri].At < we; it.ri++ {
		if p := c.Raw[it.ri]; p.At >= ws {
			a.addPoint(p)
			it.tiers.Raw++
		}
	}

	a.finish(we)
	a.w.Start = ws
	it.w = a.w
	return true
}

// Window returns the current aggregate. Only valid after a true Next.
func (it *WindowIter) Window() WindowAgg { return it.w }

// Tiers reports cumulative tier hits so far.
func (it *WindowIter) Tiers() TierHits { return it.tiers }

// Watermark is the fold watermark of the cut the iterator answers
// from: below it every window was answered from buckets.
func (it *WindowIter) Watermark() time.Duration { return it.c.Folded }

// Close releases the pooled raw buffer. The iterator must not be used
// afterwards. Idempotent.
func (it *WindowIter) Close() {
	if it.c.Release != nil {
		it.c.Release()
		it.c.Release = nil
	}
	it.c.Raw = nil
}

// consume adds tier bs's buckets starting in [lo, hi) to a, advancing
// the cursor *i and the hit count *hits. The cursor skips to lo by
// binary search, not a linear walk: a century query would otherwise step
// through ~1M hourly buckets just to skip the ones the daily tier covers.
func consume(a *acc, bs []rollup.Bucket, i, hits *int, lo, hi time.Duration) {
	*i += sort.Search(len(bs)-*i, func(j int) bool { return bs[*i+j].Start >= lo })
	for ; *i < len(bs) && bs[*i].Start < hi; *i++ {
		a.addBucket(bs[*i])
		*hits++
	}
}

// acc accumulates one window. prev is the last arrival consumed (window
// start before any): the gap cursor the seam-stitching runs on.
type acc struct {
	w    WindowAgg
	prev time.Duration
	any  bool
}

func (a *acc) addBucket(b rollup.Bucket) {
	if b.Count == 0 {
		return
	}
	if !a.any {
		a.w.Min, a.w.Max = b.Min, b.Max
		a.any = true
	} else {
		if b.Min < a.w.Min {
			a.w.Min = b.Min
		}
		if b.Max > a.w.Max {
			a.w.Max = b.Max
		}
	}
	if g := b.First - a.prev; g > a.w.MaxGap {
		a.w.MaxGap = g
	}
	if b.MaxGap > a.w.MaxGap {
		a.w.MaxGap = b.MaxGap
	}
	a.prev = b.Last
	a.w.Count += b.Count
	a.w.Sum += b.Sum
}

func (a *acc) addPoint(p tsdb.Point) {
	if !a.any {
		a.w.Min, a.w.Max = p.Value, p.Value
		a.any = true
	} else {
		if p.Value < a.w.Min {
			a.w.Min = p.Value
		}
		if p.Value > a.w.Max {
			a.w.Max = p.Value
		}
	}
	if g := p.At - a.prev; g > a.w.MaxGap {
		a.w.MaxGap = g
	}
	a.prev = p.At
	a.w.Count++
	a.w.Sum += float64(p.Value)
}

func (a *acc) finish(we time.Duration) {
	if g := we - a.prev; g > a.w.MaxGap {
		a.w.MaxGap = g
	}
}

func alignDown(t, w time.Duration) time.Duration {
	if t < 0 {
		return 0
	}
	return t - t%w
}

func alignUp(t, w time.Duration) time.Duration {
	return alignDown(t+w-1, w)
}
