package telemetry

import (
	"fmt"

	"centuryscale/internal/lpwan"
)

// The map guard below is the replay guard as it stood before the sliding
// bitmap, kept unchanged as the reference model the bitmap guard is
// checked against (TestReplayGuardMatchesMapGuard, FuzzReplayGuard). It is
// test code only.

// mapGuard tracks the highest sequence number accepted per device and
// rejects anything at or below it. Transmit-only devices count strictly
// upward from deployment, so a simple high-water mark suffices; a bounded
// reordering window admits gateway races.
type mapGuard struct {
	// Window allows a packet whose seq is up to Window below an already
	// accepted successor to still land (out-of-order delivery via two
	// gateways). 0 means strict monotone.
	Window uint32

	highWater map[lpwan.EUI64]uint32
	seen      map[lpwan.EUI64]map[uint32]bool
}

// newMapGuard returns a guard admitting the given reordering window.
func newMapGuard(window uint32) *mapGuard {
	return &mapGuard{
		Window:    window,
		highWater: make(map[lpwan.EUI64]uint32),
		seen:      make(map[lpwan.EUI64]map[uint32]bool),
	}
}

// Fresh reports whether Admit would accept the packet, without mutating
// the guard. Callers that must do fallible work between the freshness
// check and the commitment (e.g. a WAL append) use Fresh first and Admit
// only once the work succeeded, holding their own lock across both.
func (g *mapGuard) Fresh(p Packet) error {
	hw, known := g.highWater[p.Device]
	if !known {
		return nil
	}
	// Window arithmetic is done in uint64: a device that has counted to
	// the top of the uint32 sequence space (hw near MaxUint32) would
	// otherwise wrap hw+1 to 0 and admit arbitrarily stale replays as
	// "within the window".
	switch {
	case p.Seq > hw:
		return nil
	case uint64(p.Seq)+uint64(g.Window) >= uint64(hw)+1: // within window below high water
		if g.seen[p.Device][p.Seq] {
			return fmt.Errorf("%w: seq %d already seen", ErrReplay, p.Seq)
		}
		return nil
	default:
		return fmt.Errorf("%w: seq %d <= high water %d", ErrReplay, p.Seq, hw)
	}
}

// Admit records and admits the packet if its sequence number is fresh,
// returning ErrReplay otherwise.
func (g *mapGuard) Admit(p Packet) error {
	if err := g.Fresh(p); err != nil {
		return err
	}
	hw, known := g.highWater[p.Device]
	g.markSeen(p.Device, p.Seq)
	if !known || p.Seq > hw {
		g.highWater[p.Device] = p.Seq
		if known {
			g.pruneSeen(p.Device, p.Seq)
		}
	}
	return nil
}

func (g *mapGuard) markSeen(dev lpwan.EUI64, seq uint32) {
	m := g.seen[dev]
	if m == nil {
		m = make(map[uint32]bool)
		g.seen[dev] = m
	}
	m[seq] = true
}

// pruneSeen drops seen entries that fell out of the window to bound
// memory over a 50-year run. As in Fresh, the comparison is widened to
// uint64: with hw near MaxUint32 the narrow s+Window would wrap and
// prune entries still inside the window, forgetting sequence numbers
// that must stay rejected.
func (g *mapGuard) pruneSeen(dev lpwan.EUI64, hw uint32) {
	m := g.seen[dev]
	for s := range m {
		if uint64(s)+uint64(g.Window) < uint64(hw) {
			delete(m, s)
		}
	}
}

// Seed raises a device's sequence high-water mark without replaying the
// individual packets — rebuilding replay protection for readings whose
// raw copies were folded into rollup buckets, where only the maximum
// sequence number survives. The seeded sequence itself is marked seen
// (so an exact replay of the last folded packet is still rejected);
// unseen sequence numbers inside the reordering window below it remain
// admissible, the same bounded tolerance live ingest grants. A seed
// never lowers an existing mark.
func (g *mapGuard) Seed(dev lpwan.EUI64, seq uint32) {
	hw, known := g.highWater[dev]
	if known && seq <= hw {
		return
	}
	g.highWater[dev] = seq
	g.markSeen(dev, seq)
	if known {
		g.pruneSeen(dev, seq)
	}
}

// Devices reports how many distinct devices the guard has seen.
func (g *mapGuard) Devices() int { return len(g.highWater) }
