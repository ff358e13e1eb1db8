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
	"errors"
	"fmt"
	"sort"
	"time"

	"centuryscale/internal/lpwan"
	"centuryscale/internal/rollup"
	"centuryscale/internal/tsdb"
)

// ErrBadWindow rejects non-positive steps and empty or negative ranges.
var ErrBadWindow = errors.New("query: window range must be non-empty with a positive step")

// Source is what the query engine reads. RollupEngine may return nil
// (rollups disabled), in which case every query runs over raw points.
// RawPoints returns one device's points with At in [from, to) plus a
// release func for the underlying pooled buffer; the slice must not be
// used after release. Devices lists every device the source holds
// readings of, raw or folded.
type Source interface {
	RollupEngine() *rollup.Engine
	RawPoints(dev lpwan.EUI64, from, to time.Duration) ([]tsdb.Point, func())
	Devices() []lpwan.EUI64
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
// The iterator is a streaming cursor: raw points are fetched once at
// creation (so the result is a consistent cut even while ingest
// continues) and every tier is walked monotonically. Close releases the
// pooled raw buffer.
func (e *Engine) Windows(dev lpwan.EUI64, from, to, step time.Duration) (*WindowIter, error) {
	if step <= 0 || to <= from || from < 0 {
		return nil, ErrBadWindow
	}
	it := &WindowIter{from: from, to: to, step: step, cur: from}
	if r := e.Src.RollupEngine(); r != nil {
		it.folded = r.FoldedBefore()
		it.dailyFolded = r.DailyFoldedBefore()
		it.hw = r.Config().Hourly
		it.dw = r.Config().Daily
		if from < it.folded {
			if from%it.hw != 0 || step%it.hw != 0 {
				return nil, fmt.Errorf("query: window boundaries below the fold watermark (%v) must align to the hourly tier (%v): from=%v step=%v", it.folded, it.hw, from, step)
			}
			it.hourly, it.daily = r.SeriesView(dev)
		}
	}
	rawFrom := from
	if it.folded > rawFrom {
		rawFrom = it.folded
	}
	if to > rawFrom {
		raw, release := e.Src.RawPoints(dev, rawFrom, to)
		it.release = release
		// Points below the watermark that the store has not drained yet
		// are excluded: once the watermark is published, the sealed
		// region belongs to the buckets alone (counting such a point
		// here would double-count it the moment the fold lands).
		kept := raw[:0]
		for _, p := range raw {
			if p.At >= it.folded {
				kept = append(kept, p)
			}
		}
		// Arrival order is not guaranteed At-sorted across restarts;
		// the window walk needs a single sorted pass.
		sort.Slice(kept, func(i, j int) bool {
			if kept[i].At != kept[j].At {
				return kept[i].At < kept[j].At
			}
			return kept[i].Seq < kept[j].Seq
		})
		it.raw = kept
	}
	return it, nil
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
	from, to, step      time.Duration
	folded, dailyFolded time.Duration
	hw, dw              time.Duration
	hourly, daily       []rollup.Bucket
	hi, di              int
	raw                 []tsdb.Point
	ri                  int
	release             func()
	cur                 time.Duration
	w                   WindowAgg
	tiers               TierHits
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
	if se := minDur(we, it.folded); ws < se {
		dlo := alignUp(ws, it.dw)
		dhi := minDur(alignDown(se, it.dw), it.dailyFolded)
		if dlo < dhi {
			it.consumeHourly(&a, ws, dlo)
			it.consumeDaily(&a, dlo, dhi)
			it.consumeHourly(&a, dhi, se)
		} else {
			it.consumeHourly(&a, ws, se)
		}
	}

	// Raw tail: the cursor is monotone because windows are.
	for it.ri < len(it.raw) && it.raw[it.ri].At < we {
		p := it.raw[it.ri]
		it.ri++
		if p.At >= ws {
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

// Close releases the pooled raw buffer. The iterator must not be used
// afterwards. Idempotent.
func (it *WindowIter) Close() {
	if it.release != nil {
		it.release()
		it.release = nil
	}
	it.raw = nil
}

func (it *WindowIter) consumeHourly(a *acc, lo, hi time.Duration) {
	// Skip buckets covered by the daily tier (or below the query range)
	// by binary search, not linear walk: a century query would otherwise
	// step through ~1M hourly buckets just to skip them.
	it.hi += sort.Search(len(it.hourly)-it.hi, func(i int) bool {
		return it.hourly[it.hi+i].Start >= lo
	})
	for it.hi < len(it.hourly) && it.hourly[it.hi].Start < hi {
		a.addBucket(it.hourly[it.hi])
		it.tiers.Hourly++
		it.hi++
	}
}

func (it *WindowIter) consumeDaily(a *acc, lo, hi time.Duration) {
	it.di += sort.Search(len(it.daily)-it.di, func(i int) bool {
		return it.daily[it.di+i].Start >= lo
	})
	for it.di < len(it.daily) && it.daily[it.di].Start < hi {
		a.addBucket(it.daily[it.di])
		it.tiers.Daily++
		it.di++
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

func minDur(a, b time.Duration) time.Duration {
	if a < b {
		return a
	}
	return b
}
