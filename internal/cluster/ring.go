// Package cluster turns N independent endpoint nodes into one logical
// endpoint: a consistent-hash ring partitions the device space, every
// accepted packet is replicated to R owners, and an acknowledgement is
// only sent upstream after W of them have durably appended it — the
// WAL-before-ack contract, extended across machines.
//
// The paper's endpoint is the experiment's weakest single point: sensors
// survive decades by doing almost nothing, but centurysensors.com is one
// process on one host. ROADMAP item 2 and the related deployment papers
// (Signpost, self-healing LoRa) all land on the same remedy — replicate
// the boring way, fail over automatically, and rehearse the failures on
// a schedule rather than waiting fifty years to discover the recovery
// path rotted. Everything here is built to be driven by internal/chaos
// under a seed: kill any node mid-ingest and the acknowledged history
// must survive byte-exact.
package cluster

import (
	"slices"
	"sort"
	"strconv"

	"centuryscale/internal/lpwan"
	"centuryscale/internal/tsdb"
)

// ringVNodes is the default virtual-node count per physical node: enough
// that removing one node of three moves ~1/3 of the keyspace instead of
// a contiguous half.
const ringVNodes = 64

// Ring is a consistent-hash ring over node indexes. Hashing is
// tsdb.Mix64 — the same splitmix64 finalizer the storage engine shards
// with — so "which node owns this device" and "which shard inside that
// node" are two reads of one well-tested function. Immutable after
// construction; safe for concurrent use.
type Ring struct {
	points []ringPoint
	nodes  int
}

type ringPoint struct {
	hash uint64
	node int
}

// NewRing builds a ring of n nodes with vnodes virtual points each
// (vnodes <= 0 takes the default 64).
func NewRing(n, vnodes int) *Ring {
	if n <= 0 {
		panic("cluster: ring needs at least one node")
	}
	if vnodes <= 0 {
		vnodes = ringVNodes
	}
	r := &Ring{nodes: n, points: make([]ringPoint, 0, n*vnodes)}
	for node := 0; node < n; node++ {
		for v := 0; v < vnodes; v++ {
			// Mix a (node, vnode) pair into one point. The inputs are
			// tiny sequential integers — exactly what the finalizer is
			// for.
			h := tsdb.Mix64(uint64(node)<<32 | uint64(v) | 1<<63)
			r.points = append(r.points, ringPoint{hash: h, node: node})
		}
	}
	sort.Slice(r.points, func(i, j int) bool {
		if r.points[i].hash != r.points[j].hash {
			return r.points[i].hash < r.points[j].hash
		}
		return r.points[i].node < r.points[j].node
	})
	return r
}

// Nodes returns the physical node count.
func (r *Ring) Nodes() int { return r.nodes }

// Owners returns the preference list for a device: the first rep
// distinct nodes clockwise from the device's hash point. The first
// entry is the partition's home primary; the rest are its replicas.
// rep is clamped to the node count.
func (r *Ring) Owners(dev lpwan.EUI64, rep int) []int {
	return r.appendOwners(nil, tsdb.Mix64(dev.Uint64()), rep)
}

// appendOwners appends to dst the preference list starting at hash:
// exactly rep distinct nodes, rep clamped to [1, node count]. Distinctness
// is checked against the nodes this call appended, so a caller collecting
// every packet's list into one slice allocates nothing per packet.
func (r *Ring) appendOwners(dst []int, hash uint64, rep int) []int {
	rep = min(max(rep, 1), r.nodes)
	start := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= hash })
	base := len(dst)
	for i := 0; i < len(r.points) && len(dst)-base < rep; i++ {
		if node := r.points[(start+i)%len(r.points)].node; !slices.Contains(dst[base:], node) {
			dst = append(dst, node)
		}
	}
	return dst
}

// Segments returns every distinct preference list the ring can produce
// at replication factor rep, deduplicated. This is the cluster's
// partition map: a partition is unavailable exactly when every node in
// its segment is down, which is what the health aggregation checks.
func (r *Ring) Segments(rep int) [][]int {
	seen := make(map[string]bool)
	var out [][]int
	for _, p := range r.points {
		owners := r.appendOwners(nil, p.hash, rep)
		key := ""
		for _, o := range owners {
			key += strconv.Itoa(o) + ","
		}
		if !seen[key] {
			seen[key] = true
			out = append(out, owners)
		}
	}
	return out
}
