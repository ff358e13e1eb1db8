package daemon

import (
	"context"
	"flag"
	"strings"
	"time"

	"centuryscale/internal/batch"
	"centuryscale/internal/cluster"
	"centuryscale/internal/resilience"
)

// ClusterFlags carries the replicated-endpoint knobs of the router tier.
// An empty -cluster-peers (the default) leaves the daemon in classic
// single-endpoint mode.
type ClusterFlags struct {
	Peers          string
	Replicas       int
	WriteQuorum    int
	Secret         string
	HeartbeatEvery time.Duration
	SuspectAfter   time.Duration
}

// RegisterClusterFlags declares the standard cluster flags on the
// process flag set and returns their destination.
func RegisterClusterFlags() *ClusterFlags {
	f := &ClusterFlags{}
	flag.StringVar(&f.Peers, "cluster-peers", "",
		"comma-separated endpoint base URLs; non-empty switches delivery to quorum-replicated cluster mode")
	flag.IntVar(&f.Replicas, "replicas", 2, "replicas per device partition (R)")
	flag.IntVar(&f.WriteQuorum, "write-quorum", 0, "durable appends required before ack (W; 0 = majority of -replicas)")
	flag.StringVar(&f.Secret, "cluster-secret", "", "shared secret for intra-cluster routes (required with -cluster-peers)")
	flag.DurationVar(&f.HeartbeatEvery, "heartbeat-every", 500*time.Millisecond, "peer heartbeat probe interval")
	flag.DurationVar(&f.SuspectAfter, "suspect-after", 2*time.Second, "heartbeat silence before a peer is suspected (down at 3x)")
	return f
}

// Enabled reports whether cluster mode was requested.
func (f *ClusterFlags) Enabled() bool { return f.Peers != "" }

// Coordinator builds the cluster coordinator from the flags. The
// heartbeat detector (-heartbeat-every, -suspect-after) decides which
// replicas get writes; the resilience flags reach only the daemon's own
// uplink, which retries what the cluster sheds.
func (f *ClusterFlags) Coordinator() (*cluster.Coordinator, error) {
	return cluster.New(cluster.Config{
		Peers:        splitPeers(f.Peers),
		Replicas:     f.Replicas,
		WriteQuorum:  f.WriteQuorum,
		Secret:       f.Secret,
		SuspectAfter: f.SuspectAfter,
	})
}

// ClusterSender adapts the coordinator's quorum ingest to the resilience
// layer's Sender, so a store-and-forward Uplink can buffer payloads the
// cluster sheds during an outage instead of dropping them. Batch frames
// route to the coordinator's frame path (per-node sub-frames, per-packet
// quorum); bare packets keep the single-packet path.
func ClusterSender(c *cluster.Coordinator) resilience.Sender {
	return resilience.SenderFunc(func(payload []byte) error {
		if batch.IsFrame(payload) {
			return c.IngestBatch(context.Background(), payload)
		}
		return c.Ingest(context.Background(), payload)
	})
}

func splitPeers(s string) []string {
	var out []string
	for _, p := range strings.Split(s, ",") {
		if p = strings.TrimSpace(p); p != "" {
			out = append(out, strings.TrimRight(p, "/"))
		}
	}
	return out
}
