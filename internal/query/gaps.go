package query

import (
	"sort"
	"time"

	"centuryscale/internal/lpwan"
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
	mark := func(t time.Duration) {
		if w := int64(t / sim.Week); w < total {
			weeks[w] = true
		}
	}
	var folded time.Duration
	if r := e.Src.RollupEngine(); r != nil {
		folded = r.FoldedBefore()
		hourly, daily := r.SeriesView(dev)
		dailyFolded := r.DailyFoldedBefore()
		for _, b := range daily {
			mark(b.Start)
		}
		for _, b := range hourly {
			if b.Start >= dailyFolded {
				mark(b.Start)
			}
		}
	}
	pts, release := e.Src.RawPoints(dev, folded, horizon)
	for _, p := range pts {
		if p.At >= folded {
			mark(p.At)
		}
	}
	release()
	return float64(len(weeks)) / float64(total)
}

// LongestGap returns one device's longest interval with no arrival in
// [0, horizon), counting the run-in from 0 to the first arrival and the
// run-out from the last arrival to the horizon. The sealed region is
// walked tier by tier: a bucket contributes its internal MaxGap plus
// the seam gap from the previous bucket's Last to its First, so the
// answer over buckets equals the answer over the raw points they
// summarized.
func (e *Engine) LongestGap(dev lpwan.EUI64, horizon time.Duration) time.Duration {
	var gap time.Duration
	prev := time.Duration(0)
	step := func(first, last, inner time.Duration) {
		if g := first - prev; g > gap {
			gap = g
		}
		if inner > gap {
			gap = inner
		}
		prev = last
	}
	var folded time.Duration
	if r := e.Src.RollupEngine(); r != nil {
		folded = r.FoldedBefore()
		hourly, daily := r.SeriesView(dev)
		dailyFolded := r.DailyFoldedBefore()
		for _, b := range daily {
			step(b.First, b.Last, b.MaxGap)
		}
		for _, b := range hourly {
			if b.Start >= dailyFolded {
				step(b.First, b.Last, b.MaxGap)
			}
		}
	}
	pts, release := e.Src.RawPoints(dev, folded, horizon)
	ts := make([]time.Duration, 0, len(pts))
	for _, p := range pts {
		if p.At >= folded && p.At < horizon {
			ts = append(ts, p.At)
		}
	}
	release()
	sort.Slice(ts, func(i, j int) bool { return ts[i] < ts[j] })
	for _, t := range ts {
		step(t, t, 0)
	}
	if g := horizon - prev; g > gap {
		gap = g
	}
	return gap
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
