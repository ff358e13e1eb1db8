package cluster

import (
	"sync"
	"time"

	"centuryscale/internal/obs"
)

// NodeState is the detector's opinion of one node.
type NodeState uint8

// Node states, ordered by decay: a node that stops answering heartbeats
// passes Alive → Suspect → Down as its last success ages.
const (
	StateAlive NodeState = iota
	StateSuspect
	StateDown
)

// String implements fmt.Stringer.
func (s NodeState) String() string {
	switch s {
	case StateAlive:
		return "alive"
	case StateSuspect:
		return "suspect"
	case StateDown:
		return "down"
	default:
		return "state(?)"
	}
}

// Detector is a timeout failure detector: each node's state is a pure
// function of (time since the node was last heard, the two thresholds).
// No gossip, no phi-accrual — with a handful of nodes and an injectable
// clock, the simple thing is also the testable thing. It is the
// coordinator's only liveness state: replica writes, reads, /status and
// /healthz all ask it. Safe for concurrent use.
type Detector struct {
	clock        obs.Clock
	suspectAfter time.Duration
	downAfter    time.Duration

	mu     sync.Mutex
	lastOK []time.Duration
}

// NewDetector tracks n nodes on clock. A node unheard-from for
// suspectAfter becomes Suspect; for downAfter, Down. All nodes start
// Alive as of now: a cluster boots optimistic and lets silence prove
// otherwise. suspectAfter and downAfter must be positive with
// suspectAfter < downAfter.
func NewDetector(n int, clock obs.Clock, suspectAfter, downAfter time.Duration) *Detector {
	if clock == nil {
		clock = obs.ProcessClock()
	}
	if suspectAfter <= 0 || downAfter <= suspectAfter {
		panic("cluster: detector needs 0 < suspectAfter < downAfter")
	}
	d := &Detector{
		clock:        clock,
		suspectAfter: suspectAfter,
		downAfter:    downAfter,
		lastOK:       make([]time.Duration, n),
	}
	now := clock()
	for i := range d.lastOK {
		d.lastOK[i] = now
	}
	return d
}

// Heard records that node answered — a heartbeat, a replica write, a
// read — and resets its decay. There is no failure to record: state
// decays by silence, so one lost probe on a healthy node cannot flap it
// (the next answer lands before suspectAfter does).
func (d *Detector) Heard(node int) {
	now := d.clock()
	d.mu.Lock()
	if now > d.lastOK[node] {
		d.lastOK[node] = now
	}
	d.mu.Unlock()
}

// State returns the detector's current opinion of node.
func (d *Detector) State(node int) NodeState {
	d.mu.Lock()
	last := d.lastOK[node]
	d.mu.Unlock()
	return d.stateAt(last, d.clock())
}

func (d *Detector) stateAt(last, now time.Duration) NodeState {
	age := now - last
	switch {
	case age >= d.downAfter:
		return StateDown
	case age >= d.suspectAfter:
		return StateSuspect
	default:
		return StateAlive
	}
}

// Snapshot returns every node's state in one consistent read.
func (d *Detector) Snapshot() []NodeState {
	now := d.clock()
	d.mu.Lock()
	defer d.mu.Unlock()
	out := make([]NodeState, len(d.lastOK))
	for i, last := range d.lastOK {
		out[i] = d.stateAt(last, now)
	}
	return out
}

// Down reports whether node has decayed all the way to Down.
func (d *Detector) Down(node int) bool { return d.State(node) == StateDown }
