package cloud

import (
	"encoding/csv"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"sync/atomic"
	"time"

	"centuryscale/internal/batch"
	"centuryscale/internal/httpapi"
	"centuryscale/internal/tsdb"
)

// Server exposes a Store over HTTP: the real, publicly-reachable face of
// the experiment. Routes:
//
//	POST /ingest        raw 24-byte telemetry packet in the body
//	POST /ingest/batch  batch frame of N packets (the same handler)
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
	maxInFlight atomic.Int64
	inFlight    atomic.Int64
	degraded    atomic.Bool
	shed        atomic.Uint64
	// retryAfterSec is the hint sent with every 503. Default 1.
	retryAfterSec atomic.Int64

	// clusterSecret (a string; empty = disarmed) gates the
	// cluster-internal routes and the arrival override; see cluster.go.
	clusterSecret atomic.Value

	// Query-layer instrumentation; see query_http.go.
	queryStats queryCounters
	queryObs   atomic.Pointer[queryObs]
}

// NewServer wraps a store; the weekly-uptime clock starts now.
func NewServer(store *Store, now time.Time) *Server {
	s := &Server{store: store, start: now, mux: http.NewServeMux()}
	s.retryAfterSec.Store(1)
	s.mux.HandleFunc("POST /ingest", s.handleIngest(httpapi.MaxPacketBody, "cloud: request body exceeds limit", false))
	s.mux.HandleFunc("POST /ingest/batch", s.handleIngest(batch.MaxFrameBytes, "cloud: frame exceeds cap", true))
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
	s.maxInFlight.Store(int64(n))
}

// SetRetryAfter sets the Retry-After hint (rounded up to whole seconds,
// minimum 1) attached to shed responses.
func (s *Server) SetRetryAfter(d time.Duration) {
	secs := int64((d + time.Second - 1) / time.Second)
	if secs < 1 {
		secs = 1
	}
	s.retryAfterSec.Store(secs)
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
	w.Header().Set("Retry-After", strconv.FormatInt(s.retryAfterSec.Load(), 10))
	http.Error(w, "cloud: "+reason, http.StatusServiceUnavailable)
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
	if limit := s.maxInFlight.Load(); limit > 0 {
		if s.inFlight.Add(1) > limit {
			s.inFlight.Add(-1)
			s.shedLoad(w, "endpoint overloaded; buffer and retry")
			return nil, false
		}
		return func() { s.inFlight.Add(-1) }, true
	}
	return func() {}, true
}

// handleIngest is the one ingest handler behind both routes: front door,
// bounded body read, arrival stamp, admission, and the outcome's status.
// A route is its body cap, its 413 text, and whether the body is a batch
// frame — answered with the frame's BatchResult — or one bare packet.
// The response is written only after the store returns, and the store
// does not return success before the WAL flush covering the body, so a
// 202 means every accepted packet is on stable storage.
func (s *Server) handleIngest(limit int, tooLarge string, frame bool) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		done, ok := s.admitIngest(w)
		if !ok {
			return
		}
		defer done()
		body, release, err := httpapi.ReadBody(r.Body, limit)
		if err != nil {
			if errors.Is(err, httpapi.ErrBodyTooLarge) {
				http.Error(w, tooLarge, http.StatusRequestEntityTooLarge)
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
		var res BatchResult
		if frame {
			res, err = s.store.IngestBatch(at, body)
		} else {
			err = s.store.Ingest(at, body)
		}
		switch {
		case err == nil && frame:
			w.Header().Set("Content-Type", "application/json")
			w.WriteHeader(http.StatusAccepted)
			if err := json.NewEncoder(w).Encode(res); err != nil {
				return // headers already sent
			}
		case err == nil:
			w.WriteHeader(http.StatusAccepted)
		case errors.Is(err, ErrPersist):
			// The flush failed, so nothing here is durable: refuse the
			// whole body with 503 so the gateway buffers and retries,
			// exactly like a snapshot-disk failure; the replay guards
			// deduplicate whatever was admitted.
			s.shedLoad(w, "endpoint storage failing; buffer and retry")
		case errors.Is(err, batch.ErrTornFrame), errors.Is(err, batch.ErrFrameSize),
			errors.Is(err, batch.ErrFrameCRC), errors.Is(err, batch.ErrBadCount):
			http.Error(w, err.Error(), http.StatusBadRequest)
		default:
			// The endpoint saw it and refused it. Duplicates are normal
			// (dual-gateway delivery): 422 tells gateways not to retry.
			http.Error(w, err.Error(), http.StatusUnprocessableEntity)
		}
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

func (s *Server) handleStatus(w http.ResponseWriter, _ *http.Request) {
	httpapi.WriteJSON(w, s.status())
}

func (s *Server) handleDevices(w http.ResponseWriter, _ *http.Request) {
	devs := s.store.Devices()
	out := make([]string, len(devs))
	for i, d := range devs {
		out[i] = d.String()
	}
	httpapi.WriteJSON(w, out)
}

func (s *Server) handleHistory(w http.ResponseWriter, r *http.Request) {
	dev, err := httpapi.ParseDevice("cloud", r)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	from, to, err := httpapi.ParseRange("cloud", r)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	rs := s.store.HistoryRange(dev, from, to)
	out := make([]httpapi.ReadingPayload, len(rs))
	for i, rd := range rs {
		out[i] = httpapi.ReadingOf(rd.At, rd.Packet)
	}
	httpapi.WriteJSON(w, out)
}

// handleExport streams one device's full history as CSV — the archival
// format a 2070s researcher will still be able to read (§4.4's data
// retention concern).
func (s *Server) handleExport(w http.ResponseWriter, r *http.Request) {
	dev, err := httpapi.ParseDevice("cloud", r)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	from, to, err := httpapi.ParseRange("cloud", r)
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
