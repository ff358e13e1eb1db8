// Package resilience turns the best-effort datapath into infrastructure:
// exponential backoff with full jitter and a bounded store-and-forward
// queue, composed into an Uplink wrapper that any layer of the real
// datapath (gateway backhaul, hotspot→router, router→endpoint) can put
// in front of its sender. Peer health is not kept here: the cluster
// coordinator asks its heartbeat detector, and an Uplink's drain loop
// learns a peer is back from its next probe.
//
// The paper's core claim is that a century-scale deployment survives
// because every layer above the transmit-only device tolerates failure:
// gateways die, backhauls sunset, endpoints move hosts. Devices retry by
// cadence, not by ACK — so once a packet has made it off the air, the
// wired side owes it better than "drop on the first failed POST", and
// the loop reading the radio side must never stall on a slow peer. The
// policy encoded here: try each payload once on the caller's goroutine,
// buffer in arrival order when that fails, and let one background loop
// retry the buffer head-first with a backoff that grows while the peer
// stays down. Overflow drops the oldest reading first: for cadence
// telemetry the newest value is the one the endpoint's weekly-uptime
// metric needs.
//
// All randomness (retry jitter) comes from an internal/rng stream, so a
// seeded run of the datapath is reproducible; the matching fault side
// lives in internal/chaos.
package resilience

import (
	"errors"
	"fmt"
	"time"
)

// Sender is the downstream half of a datapath hop. It is structurally
// identical to gateway.Uplink so the same implementations satisfy both.
type Sender interface {
	Send(payload []byte) error
}

// SenderFunc adapts a function to the Sender interface.
type SenderFunc func(payload []byte) error

// Send implements Sender.
func (f SenderFunc) Send(payload []byte) error { return f(payload) }

// permanentError marks an error as not worth retrying or buffering: the
// peer understood the request and rejected it (bad frame, unknown device,
// dry wallet). Retrying cannot change the outcome.
type permanentError struct{ err error }

func (e *permanentError) Error() string { return e.err.Error() }
func (e *permanentError) Unwrap() error { return e.err }

// Permanent wraps err so IsPermanent reports true. A nil err returns nil.
func Permanent(err error) error {
	if err == nil {
		return nil
	}
	return &permanentError{err: err}
}

// IsPermanent reports whether err (or anything it wraps) was marked
// Permanent. Unmarked errors are treated as transient.
func IsPermanent(err error) bool {
	var p *permanentError
	return errors.As(err, &p)
}

// RetryAfterError is a transient failure that carries the peer's own
// back-pressure hint (an HTTP 503/429 Retry-After). The Uplink's drain
// loop waits After in place of its computed backoff, up to BackoffMax.
type RetryAfterError struct {
	After time.Duration
	Err   error
}

// Error implements error.
func (e *RetryAfterError) Error() string {
	return fmt.Sprintf("%v (retry after %v)", e.Err, e.After)
}

// Unwrap exposes the underlying cause.
func (e *RetryAfterError) Unwrap() error { return e.Err }

// retryHint extracts a peer-supplied delay from err, or zero.
func retryHint(err error) time.Duration {
	var ra *RetryAfterError
	if errors.As(err, &ra) && ra.After > 0 {
		return ra.After
	}
	return 0
}
