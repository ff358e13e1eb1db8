package query

import (
	"sort"
	"time"

	"centuryscale/internal/lpwan"
	"centuryscale/internal/rollup"
	"centuryscale/internal/sim"
)

// WeeklyUptime is the paper's end-to-end metric for one device over
// [0, horizon): the fraction of weeks with at least one arrival. Sealed
// weeks are answered from buckets (a bucket's week is its Start's week,
// exact whenever the tier widths divide a week — true for the default
// 1h/24h geometry), the tail from raw points.
func (e *Engine) WeeklyUptime(dev lpwan.EUI64, horizon time.Duration) float64 {
	total := int64(horizon / sim.Week)
	if total <= 0 {
		return 0
	}
	weeks := make(map[int64]bool)
	c := e.Src.Cut(dev, 0, horizon)
	defer c.Release()
	c.spans(horizon, func(start, _, _, _ time.Duration) {
		if w := int64(start / sim.Week); w < total {
			weeks[w] = true
		}
	})
	return float64(len(weeks)) / float64(total)
}

// LongestGap returns one device's longest interval with no arrival in
// [0, horizon), counting the run-in from 0 to the first arrival and the
// run-out from the last arrival to the horizon. A bucket contributes its
// internal MaxGap plus the seam gap from the previous span's Last to its
// First, so the answer over buckets equals the answer over the raw
// points they summarized. Below the fold watermark a bucket is the
// finest history there is, so a horizon there that is off the hourly
// grid is answered at the grid line below it (DESIGN.md S57, F18).
func (e *Engine) LongestGap(dev lpwan.EUI64, horizon time.Duration) time.Duration {
	var gap, prev time.Duration
	c := e.Src.Cut(dev, 0, horizon)
	defer c.Release()
	if horizon < c.Folded {
		horizon = rollup.AlignDown(horizon, c.HourlyWidth)
	}
	c.spans(horizon, func(_, first, last, inner time.Duration) {
		gap = max(gap, first-prev, inner)
		prev = last
	})
	return max(gap, horizon-prev)
}

// spans walks the cut's history below upTo in time order, tier by
// tier: the daily buckets that end by upTo, then the hourly buckets the
// daily ones do not cover that start below upTo, then the raw points
// (the cut holds none at or past upTo). A bucket passes its Start, first
// and last arrival and internal MaxGap; a raw point its At three times
// and no inner gap. With upTo on the hourly grid, no span reaches past
// it.
func (c *Cut) spans(upTo time.Duration, fn func(start, first, last, inner time.Duration)) {
	daily := min(c.DailyFolded, rollup.AlignDown(upTo, c.DailyWidth))
	for _, b := range c.Daily {
		if b.Start >= daily {
			break
		}
		fn(b.Start, b.First, b.Last, b.MaxGap)
	}
	hourly := c.Hourly[sort.Search(len(c.Hourly), func(i int) bool { return c.Hourly[i].Start >= daily }):]
	for _, b := range hourly {
		if b.Start >= upTo {
			break
		}
		fn(b.Start, b.First, b.Last, b.MaxGap)
	}
	for _, p := range c.Raw {
		fn(p.At, p.At, p.At, 0)
	}
}

// DeviceGap pairs a device with its longest no-arrival interval.
type DeviceGap struct {
	Device lpwan.EUI64
	Gap    time.Duration
}

// TopGaps returns the k devices with the longest no-arrival intervals
// in [0, horizon), longest first, ties broken by ascending device
// address — the "which sensors are dying" dashboard query. It ranks the
// source's Devices, which keep a device whose every point has been
// folded away.
func (e *Engine) TopGaps(k int, horizon time.Duration) []DeviceGap {
	if k <= 0 {
		return nil
	}
	devs := e.Src.Devices()
	out := make([]DeviceGap, 0, len(devs))
	for _, d := range devs {
		out = append(out, DeviceGap{Device: d, Gap: e.LongestGap(d, horizon)})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Gap != out[j].Gap {
			return out[i].Gap > out[j].Gap
		}
		return out[i].Device.Uint64() < out[j].Device.Uint64()
	})
	if len(out) > k {
		out = out[:k]
	}
	return out
}
