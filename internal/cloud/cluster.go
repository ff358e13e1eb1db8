package cloud

import (
	"crypto/subtle"
	"encoding/json"
	"io"
	"math"
	"net/http"
	"time"

	"centuryscale/internal/httpapi"
	"centuryscale/internal/lpwan"
	"centuryscale/internal/sim"
	"centuryscale/internal/telemetry"
	"centuryscale/internal/tsdb"
)

// Cluster-internal surface: the trusted, secret-gated routes replica
// nodes use among themselves. None of this is reachable in a
// single-node deployment — the routes answer 404 until SetClusterSecret
// arms them — and none of it weakens the public contract: packets still
// verify against the device key; the secret only authorizes metadata a
// peer is trusted to assert (the arrival stamp) and the replication
// routes.
//
//	GET  /cluster/history?device=...  exact per-device records
//	POST /cluster/replicate           merge records into this node
//
// Exact matters: the public /history route serves float seconds for
// humans, but replicas comparing histories need bit-identical records,
// so the cluster routes carry int64 nanoseconds and IEEE-754 bit
// patterns. Byte-exact convergence is asserted, not approximated.

// Cluster header names.
const (
	// ClusterSecretHeader carries the shared cluster secret on every
	// cluster-internal request.
	ClusterSecretHeader = "X-Century-Cluster"
	// ClusterArrivalHeader carries the coordinator's arrival stamp
	// (int64 nanoseconds) on replicated ingest, so R replicas of one
	// packet store one arrival time instead of R skewed clocks.
	ClusterArrivalHeader = "X-Century-Arrival"
)

// ClusterRecord is one reading in cluster-exact wire form.
type ClusterRecord struct {
	AtNanos   int64  `json:"at_nanos"`
	Seq       uint32 `json:"seq"`
	Sensor    uint8  `json:"sensor"`
	ValueBits uint32 `json:"value_bits"`
	Uptime    uint32 `json:"uptime"`
}

// RecordOf converts a reading to its cluster-exact form.
func RecordOf(r Reading) ClusterRecord {
	return ClusterRecord{
		AtNanos:   int64(r.At),
		Seq:       r.Packet.Seq,
		Sensor:    uint8(r.Packet.Sensor),
		ValueBits: math.Float32bits(r.Packet.Value),
		Uptime:    r.Packet.UptimeSeconds,
	}
}

// Reading converts back, attaching the device the record belongs to.
func (c ClusterRecord) Reading(dev lpwan.EUI64) Reading {
	r := Reading{At: time.Duration(c.AtNanos)}
	r.Packet.Device = dev
	r.Packet.Seq = c.Seq
	r.Packet.Sensor = telemetry.SensorType(c.Sensor)
	r.Packet.Value = math.Float32frombits(c.ValueBits)
	r.Packet.UptimeSeconds = c.Uptime
	return r
}

// ReplicatePayload is the POST /cluster/replicate body.
type ReplicatePayload struct {
	Device  string          `json:"device"`
	Records []ClusterRecord `json:"records"`
}

// SetClusterSecret arms the cluster-internal routes and the arrival
// override with a shared secret. An empty secret disarms them again.
func (s *Server) SetClusterSecret(secret string) {
	s.clusterSecret.Store(secret)
}

func (s *Server) clusterSecretValue() string {
	v, _ := s.clusterSecret.Load().(string)
	return v
}

// clusterAuthorized reports whether r carries the armed cluster secret.
// Always false while disarmed.
func (s *Server) clusterAuthorized(r *http.Request) bool {
	secret := s.clusterSecretValue()
	if secret == "" {
		return false
	}
	got := r.Header.Get(ClusterSecretHeader)
	return subtle.ConstantTimeCompare([]byte(got), []byte(secret)) == 1
}

// requireCluster gates a cluster-internal handler: 404 while disarmed
// (the surface does not exist on a single-node deployment), 403 on a
// wrong secret.
func (s *Server) requireCluster(w http.ResponseWriter, r *http.Request) bool {
	if s.clusterSecretValue() == "" {
		http.Error(w, "cloud: cluster mode disabled", http.StatusNotFound)
		return false
	}
	if !s.clusterAuthorized(r) {
		http.Error(w, "cloud: bad cluster secret", http.StatusForbidden)
		return false
	}
	return true
}

func (s *Server) handleClusterHistory(w http.ResponseWriter, r *http.Request) {
	if !s.requireCluster(w, r) {
		return
	}
	dev, err := httpapi.ParseDevice("cloud", r)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	rs := s.store.History(dev)
	out := make([]ClusterRecord, len(rs))
	for i, rd := range rs {
		out[i] = RecordOf(rd)
	}
	httpapi.WriteJSON(w, out)
}

func (s *Server) handleClusterReplicate(w http.ResponseWriter, r *http.Request) {
	if !s.requireCluster(w, r) {
		return
	}
	var p ReplicatePayload
	if err := json.NewDecoder(io.LimitReader(r.Body, 8<<20)).Decode(&p); err != nil {
		http.Error(w, "cloud: bad replicate payload: "+err.Error(), http.StatusBadRequest)
		return
	}
	dev, err := lpwan.ParseEUI64(p.Device)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	recs := make([]Reading, len(p.Records))
	for i, rec := range p.Records {
		recs[i] = rec.Reading(dev)
	}
	added, err := s.store.Repair(dev, recs)
	if err != nil {
		s.shedLoad(w, "repair persist failing; retry")
		return
	}
	httpapi.WriteJSON(w, map[string]int{"added": added})
}

// Repair merges records fetched from a replica into this store: the
// receiving half of read-repair. Records the store already holds
// (matched by sequence number — the device's own monotonic stream
// identity) are skipped; missing ones are durably appended. Unlike
// Ingest, Repair trusts its caller — the packets were verified by the
// node that first accepted them, and the cluster secret gates the HTTP
// route — so no signature re-check, no replay-guard freshness veto
// (the whole point is admitting records the guard window has moved
// past).
//
// Returns how many records were newly stored. Like admission, the merge
// appends under the device's guard-shard lock and flushes after it. On a
// persist failure the error reports ErrPersist; the records stay merged
// (the operation is idempotent, so the caller just retries and is told
// added == 0), and a nil return means every record it merged or already
// held is flushed.
func (s *Store) Repair(dev lpwan.EUI64, recs []Reading) (int, error) {
	if len(recs) == 0 {
		return 0, nil
	}
	gs := s.guardFor(dev)
	gs.mu.Lock()
	// Records below the rollup fold watermark are already summarized in
	// sealed buckets (their raw copies — and with them the seq-dedup
	// evidence — may be gone), so merging them raw would double-count.
	// Same rule and same barrier discipline as admission's sealed check.
	var sealedBelow time.Duration
	if r := s.rollups.Load(); r != nil {
		sealedBelow = r.FoldedBefore()
	}
	have := make(map[uint32]struct{})
	for _, pt := range s.db.History(dev) {
		have[pt.Seq] = struct{}{}
	}
	var missing []tsdb.Point
	var rec *device
	for _, r := range recs {
		if r.At < sealedBelow {
			s.stats.stale.Add(1)
			continue
		}
		if _, dup := have[r.Packet.Seq]; dup {
			continue
		}
		have[r.Packet.Seq] = struct{}{}
		missing = append(missing, pointOf(r.At, r.Packet))
		// Advance the replay window over repaired sequence numbers so a
		// late duplicate of a repaired packet is still rejected; records
		// older than the window simply leave it unchanged.
		if rec == nil {
			rec = gs.enrol(dev)
		}
		rec.win.Record(r.Packet.Seq, replayWindow)
		gs.weeks[int64(r.At/sim.Week)] = struct{}{}
		s.observeArrival(r.At)
	}
	// Dedup-check and append commit together under the guard lock, or a
	// racing ingest of the same seq double-stores. held also covers
	// records skipped as already held, which may be the unflushed
	// leftovers of a merge that failed: answer only once they are on disk.
	held := s.db.LogEnd()
	if len(missing) > 0 {
		held = s.db.AppendDeferred(missing)
	}
	// Counted under the guard lock as admission counts, so Accepted is
	// the readings the store holds live, in a checkpoint's cut, and after
	// ReplayWAL (which cannot tell a repaired record from an admitted one).
	gs.accepted += uint64(len(missing))
	gs.mu.Unlock()

	s.stats.accepted.Add(uint64(len(missing)))
	s.stats.repaired.Add(uint64(len(missing)))
	if err := s.db.Flush(held); err != nil {
		return len(missing), s.persistFailed(len(missing), err)
	}
	return len(missing), nil
}
