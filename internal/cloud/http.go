package cloud

import (
	"encoding/csv"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"centuryscale/internal/batch"
	"centuryscale/internal/lpwan"
	"centuryscale/internal/sim"
	"centuryscale/internal/tsdb"
)

// Server exposes a Store over HTTP: the real, publicly-reachable face of
// the experiment. Routes:
//
//	POST /ingest   raw 24-byte telemetry packet in the body
//	GET  /status   JSON summary (stats, uptime, device count)
//	GET  /devices  JSON list of device addresses
//	GET  /history?device=aa:bb:...  JSON readings for one device
//	GET  /         human-readable status page (the "living diary")
//
// Arrival times are wall-clock durations since the server's start, so the
// same Store code serves both simulations and the long-running daemon.
//
// The ingest route degrades gracefully instead of failing opaquely: when
// more than the configured number of ingests are in flight (overload) or
// the server has been marked degraded (persist failure), it answers
// 503 + Retry-After. Gateways running a resilience.Uplink treat that as
// "buffer and come back", which is exactly what a century-scale endpoint
// wants its edge to do while it recovers.
type Server struct {
	store *Store
	start time.Time
	mux   *http.ServeMux

	// maxInFlight caps concurrent ingests; 0 means unlimited.
	maxInFlight int64
	inFlight    atomic.Int64
	degraded    atomic.Bool
	shed        atomic.Uint64
	// retryAfterSec is the hint sent with every 503. Default 1.
	retryAfterSec int64

	// clusterSecret (a string; empty = disarmed) gates the
	// cluster-internal routes and the arrival override; see cluster.go.
	clusterSecret atomic.Value

	// Query-layer instrumentation; see query_http.go.
	queryStats queryCounters
	queryObs   atomic.Pointer[queryObs]
}

// NewServer wraps a store; the weekly-uptime clock starts now.
func NewServer(store *Store, now time.Time) *Server {
	s := &Server{store: store, start: now, mux: http.NewServeMux(), retryAfterSec: 1}
	s.mux.HandleFunc("POST /ingest", s.handleIngest)
	s.mux.HandleFunc("POST /ingest/batch", s.handleIngestBatch)
	s.mux.HandleFunc("GET /status", s.handleStatus)
	s.mux.HandleFunc("GET /devices", s.handleDevices)
	s.mux.HandleFunc("GET /history", s.handleHistory)
	s.mux.HandleFunc("GET /export", s.handleExport)
	s.mux.HandleFunc("GET /query", s.handleQuery)
	s.mux.HandleFunc("GET /query/uptime", s.handleQueryUptime)
	s.mux.HandleFunc("GET /query/gaps", s.handleQueryGaps)
	s.mux.HandleFunc("GET /cluster/history", s.handleClusterHistory)
	s.mux.HandleFunc("POST /cluster/replicate", s.handleClusterReplicate)
	s.mux.HandleFunc("GET /{$}", s.handleIndex)
	return s
}

// SetIngestLimit caps concurrent ingest requests; n <= 0 removes the
// cap. Requests beyond the cap are shed with 503 + Retry-After.
func (s *Server) SetIngestLimit(n int) {
	if n < 0 {
		n = 0
	}
	atomic.StoreInt64(&s.maxInFlight, int64(n))
}

// SetRetryAfter sets the Retry-After hint (rounded up to whole seconds,
// minimum 1) attached to shed responses.
func (s *Server) SetRetryAfter(d time.Duration) {
	secs := int64((d + time.Second - 1) / time.Second)
	if secs < 1 {
		secs = 1
	}
	atomic.StoreInt64(&s.retryAfterSec, secs)
}

// SetDegraded marks (or clears) persist-failure degradation: while set,
// every ingest is shed with 503 so upstream buffers instead of handing
// data to a store that cannot durably keep it.
func (s *Server) SetDegraded(v bool) { s.degraded.Store(v) }

// Checkpoint checkpoints the store to path and keeps the degraded state
// in step with the outcome: a failed checkpoint means the endpoint cannot
// persist what it accepts, so ingest sheds until one succeeds again.
func (s *Server) Checkpoint(path string) error {
	err := s.store.Checkpoint(path)
	s.SetDegraded(err != nil)
	return err
}

// Degraded reports whether the server is shedding due to persist failure.
func (s *Server) Degraded() bool { return s.degraded.Load() }

// Shed returns how many ingest requests have been answered 503.
func (s *Server) Shed() uint64 { return s.shed.Load() }

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	s.mux.ServeHTTP(w, r)
}

func (s *Server) now() time.Duration { return time.Since(s.start) }

// shedLoad answers 503 + Retry-After: the graceful "come back soon".
func (s *Server) shedLoad(w http.ResponseWriter, reason string) {
	s.shed.Add(1)
	w.Header().Set("Retry-After", strconv.FormatInt(atomic.LoadInt64(&s.retryAfterSec), 10))
	http.Error(w, "cloud: "+reason, http.StatusServiceUnavailable)
}

// maxPacketBody bounds POST /ingest bodies. A telemetry packet is 24
// bytes; 1024 leaves generous headroom while keeping the pooled read
// buffers small.
const maxPacketBody = 1024

// errBodyTooLarge maps to 413: the body exceeded the route's cap. This
// replaces the old silent io.LimitReader truncation, which turned an
// oversized body into a misleading "malformed packet" count.
var errBodyTooLarge = errors.New("cloud: request body exceeds limit")

// bodyPool recycles request-body read buffers across ingest requests.
// Entries are *[]byte (pointer to avoid an allocation per Put); each is
// grown once to the largest limit it has served.
var bodyPool = sync.Pool{
	New: func() any {
		b := make([]byte, 0, maxPacketBody+1)
		return &b
	},
}

// readBody reads the whole body into a pooled buffer, rejecting bodies
// over limit with errBodyTooLarge (it reads limit+1 bytes to tell "at
// the limit" from "over it"). release returns the buffer to the pool;
// the body must not be used after calling it.
func readBody(r io.Reader, limit int) (body []byte, release func(), err error) {
	bp := bodyPool.Get().(*[]byte)
	if cap(*bp) < limit+1 {
		*bp = make([]byte, 0, limit+1)
	}
	buf := (*bp)[:limit+1]
	release = func() { bodyPool.Put(bp) }
	n, err := io.ReadFull(r, buf)
	switch {
	case err == nil:
		// limit+1 bytes arrived without EOF: over the cap.
		release()
		return nil, nil, errBodyTooLarge
	case errors.Is(err, io.EOF), errors.Is(err, io.ErrUnexpectedEOF):
		return buf[:n], release, nil
	default:
		release()
		return nil, nil, err
	}
}

// arrival resolves the request's arrival stamp: the server clock, unless
// a cluster-authenticated peer asserts the coordinator's. Replicated
// ingest carries that stamp so every replica stores the same time; only
// authenticated peers may assert one (an outsider stamping history
// would corrupt the ledger). On failure the response has been written
// and ok is false.
func (s *Server) arrival(w http.ResponseWriter, r *http.Request) (at time.Duration, ok bool) {
	at = s.now()
	hdr := r.Header.Get(ClusterArrivalHeader)
	if hdr == "" {
		return at, true
	}
	if !s.clusterAuthorized(r) {
		http.Error(w, "cloud: arrival override requires cluster auth", http.StatusForbidden)
		return 0, false
	}
	nanos, err := strconv.ParseInt(hdr, 10, 64)
	if err != nil {
		http.Error(w, "cloud: bad arrival header: "+err.Error(), http.StatusBadRequest)
		return 0, false
	}
	return time.Duration(nanos), true
}

// admitIngest applies the shared front door of both ingest routes:
// degradation and overload shedding. ok=false means the response has
// been written; done must be called (deferred) when ok.
func (s *Server) admitIngest(w http.ResponseWriter) (done func(), ok bool) {
	if s.degraded.Load() {
		s.shedLoad(w, "endpoint degraded (persist failure); buffer and retry")
		return nil, false
	}
	if limit := atomic.LoadInt64(&s.maxInFlight); limit > 0 {
		if s.inFlight.Add(1) > limit {
			s.inFlight.Add(-1)
			s.shedLoad(w, "endpoint overloaded; buffer and retry")
			return nil, false
		}
		return func() { s.inFlight.Add(-1) }, true
	}
	return func() {}, true
}

func (s *Server) handleIngest(w http.ResponseWriter, r *http.Request) {
	done, ok := s.admitIngest(w)
	if !ok {
		return
	}
	defer done()
	body, release, err := readBody(r.Body, maxPacketBody)
	if err != nil {
		if errors.Is(err, errBodyTooLarge) {
			http.Error(w, errBodyTooLarge.Error(), http.StatusRequestEntityTooLarge)
			return
		}
		http.Error(w, "read: "+err.Error(), http.StatusBadRequest)
		return
	}
	defer release()
	at, ok := s.arrival(w, r)
	if !ok {
		return
	}
	if err := s.store.Ingest(at, body); err != nil {
		// A WAL append failure means the reading is not durable: shed
		// 503 so the gateway buffers and retries, exactly like a
		// snapshot-disk failure.
		if errors.Is(err, ErrPersist) {
			s.shedLoad(w, "endpoint storage failing; buffer and retry")
			return
		}
		// Duplicates are normal (dual-gateway delivery); report them
		// as accepted-but-known so gateways don't retry.
		http.Error(w, err.Error(), http.StatusUnprocessableEntity)
		return
	}
	w.WriteHeader(http.StatusAccepted)
}

// handleIngestBatch accepts one batch frame of N packets. The response
// is written only after IngestBatch returns — and IngestBatch does not
// return success for any packet before the WAL group commit covering it
// has fsynced — so the WAL-before-ack contract holds for the whole
// frame: a 202 means every accepted packet is on stable storage.
func (s *Server) handleIngestBatch(w http.ResponseWriter, r *http.Request) {
	done, ok := s.admitIngest(w)
	if !ok {
		return
	}
	defer done()
	body, release, err := readBody(r.Body, batch.MaxFrameBytes)
	if err != nil {
		if errors.Is(err, errBodyTooLarge) {
			http.Error(w, "cloud: frame exceeds cap", http.StatusRequestEntityTooLarge)
			return
		}
		http.Error(w, "read: "+err.Error(), http.StatusBadRequest)
		return
	}
	defer release()
	at, ok := s.arrival(w, r)
	if !ok {
		return
	}
	res, err := s.store.IngestBatch(at, body)
	switch {
	case err == nil:
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusAccepted)
		if err := json.NewEncoder(w).Encode(res); err != nil {
			return // headers already sent
		}
	case errors.Is(err, ErrPersist):
		// At least one shard's group commit failed: refuse the whole
		// frame so the gateway buffers and retries; the replay guards
		// deduplicate whatever did commit.
		s.shedLoad(w, "endpoint storage failing; buffer and retry")
	case errors.Is(err, batch.ErrTornFrame), errors.Is(err, batch.ErrFrameSize),
		errors.Is(err, batch.ErrFrameCRC), errors.Is(err, batch.ErrBadCount):
		http.Error(w, err.Error(), http.StatusBadRequest)
	default:
		http.Error(w, err.Error(), http.StatusUnprocessableEntity)
	}
}

type statusPayload struct {
	UptimeSeconds float64     `json:"uptime_seconds"`
	Devices       int         `json:"devices"`
	WeeklyUptime  float64     `json:"weekly_uptime"`
	Stats         IngestStats `json:"stats"`
	Shed          uint64      `json:"shed"`
	Degraded      bool        `json:"degraded"`
	Storage       tsdb.Stats  `json:"storage"`
}

func (s *Server) status() statusPayload {
	return statusPayload{
		UptimeSeconds: s.now().Seconds(),
		Devices:       len(s.store.Devices()),
		WeeklyUptime:  s.store.WeeklyUptime(s.now()),
		Stats:         s.store.Stats(),
		Shed:          s.shed.Load(),
		Degraded:      s.degraded.Load(),
		Storage:       s.store.StorageStats(),
	}
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	if err := json.NewEncoder(w).Encode(v); err != nil {
		// Headers already sent; nothing useful left to do.
		return
	}
}

func (s *Server) handleStatus(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, s.status())
}

func (s *Server) handleDevices(w http.ResponseWriter, _ *http.Request) {
	devs := s.store.Devices()
	out := make([]string, len(devs))
	for i, d := range devs {
		out[i] = d.String()
	}
	writeJSON(w, out)
}

type readingPayload struct {
	AtSeconds float64 `json:"at_seconds"`
	Seq       uint32  `json:"seq"`
	Sensor    string  `json:"sensor"`
	Value     float32 `json:"value"`
	Uptime    uint32  `json:"device_uptime_seconds"`
}

func (s *Server) handleHistory(w http.ResponseWriter, r *http.Request) {
	devStr := r.URL.Query().Get("device")
	dev, err := parseDevice(devStr)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	from, to, err := parseRange(r)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	rs := s.store.HistoryRange(dev, from, to)
	out := make([]readingPayload, len(rs))
	for i, rd := range rs {
		out[i] = readingPayload{
			AtSeconds: rd.At.Seconds(),
			Seq:       rd.Packet.Seq,
			Sensor:    rd.Packet.Sensor.String(),
			Value:     rd.Packet.Value,
			Uptime:    rd.Packet.UptimeSeconds,
		}
	}
	writeJSON(w, out)
}

// handleExport streams one device's full history as CSV — the archival
// format a 2070s researcher will still be able to read (§4.4's data
// retention concern).
func (s *Server) handleExport(w http.ResponseWriter, r *http.Request) {
	dev, err := parseDevice(r.URL.Query().Get("device"))
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	from, to, err := parseRange(r)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	w.Header().Set("Content-Type", "text/csv")
	cw := csv.NewWriter(w)
	werr := cw.Write([]string{"at_seconds", "seq", "sensor", "value", "device_uptime_seconds"})
	for _, rd := range s.store.HistoryRange(dev, from, to) {
		if werr != nil {
			break
		}
		werr = cw.Write([]string{
			strconv.FormatFloat(rd.At.Seconds(), 'f', 3, 64),
			strconv.FormatUint(uint64(rd.Packet.Seq), 10),
			rd.Packet.Sensor.String(),
			strconv.FormatFloat(float64(rd.Packet.Value), 'g', -1, 32),
			strconv.FormatUint(uint64(rd.Packet.UptimeSeconds), 10),
		})
	}
	if werr == nil {
		cw.Flush()
		werr = cw.Error()
	}
	if werr != nil {
		// The 200 header and some rows are already on the wire, so a
		// truncated archival export cannot be turned into an error
		// status. What it must NOT look like is success: count it, and
		// kill the connection so the client sees an aborted transfer
		// rather than a clean EOF mid-history.
		s.queryStats.exportErrors.Add(1)
		panic(http.ErrAbortHandler)
	}
}

func parseDevice(s string) (lpwan.EUI64, error) {
	if s == "" {
		return lpwan.EUI64{}, fmt.Errorf("cloud: missing device parameter")
	}
	return lpwan.ParseEUI64(s)
}

// parseRange reads the optional from/to query parameters (arrival time
// in seconds, half-open [from, to)) for the history and export routes.
// Absent parameters mean an unbounded side.
func parseRange(r *http.Request) (from, to time.Duration, err error) {
	from, to = math.MinInt64, math.MaxInt64
	if v := r.URL.Query().Get("from"); v != "" {
		if from, err = clampedSeconds(v, "from"); err != nil {
			return 0, 0, err
		}
	}
	if v := r.URL.Query().Get("to"); v != "" {
		if to, err = clampedSeconds(v, "to"); err != nil {
			return 0, 0, err
		}
	}
	return from, to, nil
}

// clampedSeconds converts a query parameter of fractional seconds to a
// Duration, clamping at ±sim.MaxHorizon (the centurytime ±292-year
// contract). The raw `time.Duration(secs * float64(time.Second))` it
// replaces hit Go's implementation-defined out-of-range float→int64
// conversion on inputs like 1e300. NaN is rejected, not clamped: it
// names no range boundary at all.
func clampedSeconds(v, name string) (time.Duration, error) {
	secs, err := strconv.ParseFloat(v, 64)
	if err != nil {
		return 0, fmt.Errorf("cloud: bad %s parameter: %v", name, err)
	}
	if math.IsNaN(secs) {
		return 0, fmt.Errorf("cloud: bad %s parameter: NaN", name)
	}
	return sim.Seconds(secs), nil
}

func (s *Server) handleIndex(w http.ResponseWriter, _ *http.Request) {
	st := s.status()
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	fmt.Fprintf(w, "century sensors — living experiment status\n")
	fmt.Fprintf(w, "endpoint uptime: %.0f s\n", st.UptimeSeconds)
	fmt.Fprintf(w, "devices reporting: %d\n", st.Devices)
	fmt.Fprintf(w, "weekly uptime: %.3f\n", st.WeeklyUptime)
	fmt.Fprintf(w, "packets accepted: %d  duplicates: %d  bad-signature: %d  malformed: %d\n",
		st.Stats.Accepted, st.Stats.Duplicates, st.Stats.BadSignature, st.Stats.Malformed)
}
