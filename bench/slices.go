package main

import (
	"sort"
	"time"
)

// Slices. The host this benchmark runs on is shared: for seconds at a
// time the hypervisor gives the CPU or the disk to somebody else, and a
// figure taken over the whole window then reads 10–40% worse than the
// same code a minute later. Interference only ever slows a second down.
// So every wall-clock figure is computed per one-second slice of the
// window, and the window's figure is that of its best slice: the highest
// one-second rate, the lowest one-second median. What the server does to
// itself every second is in every slice; what it does to itself now and
// then (a checkpoint's stall) is not, and is reported separately, over
// the whole window, among the per-layer metrics.

// timed is one completed request: when it completed, in seconds since
// the window began, and how long it took.
type timed struct {
	at float64
	ms float64
}

// sliceWidth is the width of a slice in seconds.
const sliceWidth = 1.0

// minSliceSamples is the fewest requests a slice must hold for its
// median to be considered.
const minSliceSamples = 20

// cut distributes samples over n whole slices of the given width;
// samples completing after the last whole slice are dropped.
func cut(samples []timed, width float64, n int) [][]float64 {
	out := make([][]float64, n)
	for _, s := range samples {
		if i := int(s.at / width); s.at >= 0 && i < n {
			out[i] = append(out[i], s.ms)
		}
	}
	return out
}

// bestMedian is the lowest per-slice median over the slices that hold at
// least minSliceSamples, and how many samples that slice held. With no
// such slice (a window shorter than a slice) it is the plain median.
func bestMedian(samples []timed, width float64, n int) (float64, int) {
	best, held := 0.0, 0
	for _, s := range cut(samples, width, n) {
		if len(s) < minSliceSamples {
			continue
		}
		sort.Float64s(s)
		if m := median(s); held == 0 || m < best {
			best, held = m, len(s)
		}
	}
	if held == 0 && len(samples) > 0 {
		all := make([]float64, len(samples))
		for i, s := range samples {
			all[i] = s.ms
		}
		sort.Float64s(all)
		return median(all), len(all)
	}
	return best, held
}

// bestRate is the highest per-slice completion count, scaled to units
// per second (perRequest units per completed request).
func bestRate(samples []timed, width float64, n int, perRequest float64) float64 {
	best := 0
	for _, s := range cut(samples, width, n) {
		if len(s) > best {
			best = len(s)
		}
	}
	return float64(best) * perRequest / width
}

// wholeSlices is how many whole slices fit a phase of the given length.
func wholeSlices(d time.Duration) int {
	n := int(d.Seconds() / sliceWidth)
	if n < 1 {
		n = 1
	}
	return n
}
