// Package httpapi holds the HTTP plumbing the endpoint tier
// (internal/cloud) and the router tier (internal/cluster) share, so a
// router is indistinguishable from one endpoint because both run the same
// code, not two copies of it: the bounded, pooled body read of the ingest
// routes, the query-parameter parsers, the /history reading shape, and the
// classification of an ingest response into what a resilience.Uplink
// should do next. Functions that produce client-visible text take the
// tier's name ("cloud", "cluster") as its prefix.
package httpapi

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"strconv"
	"sync"
	"time"

	"centuryscale/internal/lpwan"
	"centuryscale/internal/resilience"
	"centuryscale/internal/sim"
	"centuryscale/internal/telemetry"
)

// MaxPacketBody bounds POST /ingest bodies on both tiers. A telemetry
// packet is 24 bytes; 1024 leaves generous headroom while keeping the
// pooled read buffers small.
const MaxPacketBody = 1024

// ErrBodyTooLarge maps to 413: the body exceeded the route's cap. A
// silent io.LimitReader truncation would turn an oversized body into a
// misleading "malformed packet" count.
var ErrBodyTooLarge = errors.New("request body exceeds limit")

// bodyPool recycles request-body read buffers across ingest requests.
// Entries are *[]byte (pointer to avoid an allocation per Put); each is
// grown once to the largest limit it has served.
var bodyPool = sync.Pool{
	New: func() any {
		b := make([]byte, 0, MaxPacketBody+1)
		return &b
	},
}

// ReadBody reads the whole body into a pooled buffer, rejecting bodies
// over limit with ErrBodyTooLarge (it reads limit+1 bytes to tell "at
// the limit" from "over it"). release returns the buffer to the pool;
// the body must not be used after calling it.
func ReadBody(r io.Reader, limit int) (body []byte, release func(), err error) {
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
		return nil, nil, ErrBodyTooLarge
	case errors.Is(err, io.EOF), errors.Is(err, io.ErrUnexpectedEOF):
		return buf[:n], release, nil
	default:
		release()
		return nil, nil, err
	}
}

// WriteJSON answers 200 with v as JSON.
func WriteJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	if err := json.NewEncoder(w).Encode(v); err != nil {
		// Headers already sent; nothing useful left to do.
		return
	}
}

// ReadingPayload is one reading in /history's JSON shape, the same from a
// router as from one node.
type ReadingPayload struct {
	AtSeconds float64 `json:"at_seconds"`
	Seq       uint32  `json:"seq"`
	Sensor    string  `json:"sensor"`
	Value     float32 `json:"value"`
	Uptime    uint32  `json:"device_uptime_seconds"`
}

// ReadingOf renders one accepted packet and its arrival time.
func ReadingOf(at time.Duration, p telemetry.Packet) ReadingPayload {
	return ReadingPayload{
		AtSeconds: at.Seconds(),
		Seq:       p.Seq,
		Sensor:    p.Sensor.String(),
		Value:     p.Value,
		Uptime:    p.UptimeSeconds,
	}
}

// ParseDevice reads the required device query parameter.
func ParseDevice(tier string, r *http.Request) (lpwan.EUI64, error) {
	s := r.URL.Query().Get("device")
	if s == "" {
		return lpwan.EUI64{}, fmt.Errorf("%s: missing device parameter", tier)
	}
	return lpwan.ParseEUI64(s)
}

// ParseRange reads the optional from/to query parameters (arrival time
// in seconds, half-open [from, to)) for the history, export and query
// routes. Absent parameters mean an unbounded side.
func ParseRange(tier string, r *http.Request) (from, to time.Duration, err error) {
	from, to = math.MinInt64, math.MaxInt64
	if v := r.URL.Query().Get("from"); v != "" {
		if from, err = ClampedSeconds(tier, v, "from"); err != nil {
			return 0, 0, err
		}
	}
	if v := r.URL.Query().Get("to"); v != "" {
		if to, err = ClampedSeconds(tier, v, "to"); err != nil {
			return 0, 0, err
		}
	}
	return from, to, nil
}

// ParseSeconds reads one optional float-seconds query parameter; absent
// means 0.
func ParseSeconds(tier string, r *http.Request, name string) (time.Duration, error) {
	v := r.URL.Query().Get(name)
	if v == "" {
		return 0, nil
	}
	return ClampedSeconds(tier, v, name)
}

// ClampedSeconds converts a query parameter of fractional seconds to a
// Duration, clamping at ±sim.MaxHorizon (the centurytime ±292-year
// contract). A raw `time.Duration(secs * float64(time.Second))` hits
// Go's implementation-defined out-of-range float→int64 conversion on
// inputs like 1e300. NaN is rejected, not clamped: it names no range
// boundary at all.
func ClampedSeconds(tier, v, name string) (time.Duration, error) {
	secs, err := strconv.ParseFloat(v, 64)
	if err != nil {
		return 0, fmt.Errorf("%s: bad %s parameter: %v", tier, name, err)
	}
	if math.IsNaN(secs) {
		return 0, fmt.Errorf("%s: bad %s parameter: NaN", tier, name)
	}
	return sim.Seconds(secs), nil
}

// ClassifyStatus turns a non-success response from an ingest route into
// a transient or permanent error for the resilience layer: 503 and 429
// carry the peer's Retry-After hint, other 5xx are transient, anything
// else was understood and refused, so retrying or buffering cannot help.
// The hint is the peer's to set, so it is bounded here: one too large for
// a Duration saturates rather than wrapping to a short or negative delay.
func ClassifyStatus(prefix string, resp *http.Response) error {
	err := fmt.Errorf("%s status %d", prefix, resp.StatusCode)
	switch {
	case resp.StatusCode == http.StatusServiceUnavailable || resp.StatusCode == http.StatusTooManyRequests:
		// A delay-seconds Retry-After, or zero. ParseInt's out-of-range
		// error comes with the saturated value.
		secs, perr := strconv.ParseInt(resp.Header.Get("Retry-After"), 10, 64)
		if (perr != nil && !errors.Is(perr, strconv.ErrRange)) || secs < 0 {
			secs = 0
		}
		return &resilience.RetryAfterError{After: sim.Mul(secs, time.Second), Err: err}
	case resp.StatusCode >= 500:
		return err // transient
	default:
		return resilience.Permanent(err)
	}
}
