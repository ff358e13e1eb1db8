package resilience

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"centuryscale/internal/batch"
)

// Config tunes an Uplink. Zero fields take the defaults noted.
type Config struct {
	// MaxAttempts bounds the synchronous tries per Send before the
	// payload is handed to the store-and-forward queue. Default 3.
	MaxAttempts int
	// BackoffBase / BackoffMax shape the retry delays (full jitter).
	// Defaults 100ms / 30s.
	BackoffBase time.Duration
	BackoffMax  time.Duration
	// BreakerThreshold / BreakerOpenFor / BreakerProbes tune the circuit
	// breaker; see BreakerConfig. Defaults 5 / 5s / 1.
	BreakerThreshold int
	BreakerOpenFor   time.Duration
	BreakerProbes    int
	// QueueDepth bounds the store-and-forward buffer. Default 1024.
	QueueDepth int
	// DrainInterval is how often the drain loop re-checks the queue when
	// nothing has kicked it. Default 250ms.
	DrainInterval time.Duration
	// BatchSize, when > 1, enables gateway-side batching: packet-sized
	// payloads (exactly batch.PacketSize bytes) accumulate into a batch
	// frame that is flushed downstream once it holds this many packets
	// or once the oldest pending packet is BatchAge old. Other payload
	// sizes bypass the batcher. Capped at batch.DefaultMaxPackets.
	BatchSize int
	// BatchAge bounds how long a pending frame may wait for more
	// packets before it is flushed anyway. Default 100ms when batching
	// is enabled — small enough that a trickle-rate fleet still meets
	// its delivery cadence, large enough to fill frames under load.
	BatchAge time.Duration
	// Seed feeds the jitter stream; the same seed replays the same
	// delays. Default 1.
	Seed uint64
	// Now is the breaker clock; nil means time.Now.
	Now func() time.Time
	// Sleep is the retry sleeper; nil means a context-aware timer sleep.
	// Tests inject an instant fake.
	Sleep func(ctx context.Context, d time.Duration)
}

func (c Config) withDefaults() Config {
	if c.MaxAttempts <= 0 {
		c.MaxAttempts = 3
	}
	if c.DrainInterval <= 0 {
		c.DrainInterval = 250 * time.Millisecond
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	if c.BatchSize > batch.DefaultMaxPackets {
		c.BatchSize = batch.DefaultMaxPackets
	}
	if c.BatchSize > 1 && c.BatchAge <= 0 {
		c.BatchAge = 100 * time.Millisecond
	}
	if c.Sleep == nil {
		c.Sleep = func(ctx context.Context, d time.Duration) {
			if d <= 0 {
				return
			}
			t := time.NewTimer(d)
			defer t.Stop()
			select {
			case <-ctx.Done():
			case <-t.C:
			}
		}
	}
	return c
}

// UplinkStats counts an Uplink's disposition of payloads.
type UplinkStats struct {
	// Sent counts payloads delivered on the synchronous fast path.
	Sent uint64
	// Drained counts payloads delivered from the buffer after an outage.
	Drained uint64
	// Retries counts extra synchronous attempts beyond the first.
	Retries uint64
	// Buffered counts payloads that entered the store-and-forward queue.
	Buffered uint64
	// RejectedPermanent counts payloads the peer permanently refused
	// (from either path); they are not buffered or retried.
	RejectedPermanent uint64
	// BatchedPackets counts packets that entered the pending frame;
	// FramesBuilt counts the frames sealed from them. Their ratio is
	// the realized batching factor.
	BatchedPackets uint64
	FramesBuilt    uint64
	// PendingPackets is the open frame's current fill.
	PendingPackets int
	Queue          QueueStats
	Breaker        BreakerStats
	QueueLen       int
	State          BreakerState
}

// Uplink wraps an inner Sender with retry, circuit breaking, and
// store-and-forward buffering. It satisfies gateway.Uplink, so it drops
// into any hop of the real datapath.
//
// Send semantics: on the happy path the payload goes straight through
// (with a few jittered retries on transient failure). When the peer is
// down — breaker open, or retries exhausted — the payload is buffered
// and Send returns nil: the packet made it off the air and is now this
// hop's responsibility. A background drain loop replays the buffer in
// arrival order once the peer recovers. Once anything is buffered, new
// payloads queue behind it, preserving order. Only Permanent errors
// (peer understood and refused) surface to the caller.
//
// Close flushes what it can and stops the drain loop; use Flush for a
// mid-run barrier. Safe for concurrent use.
type Uplink struct {
	inner   Sender
	cfg     Config
	backoff *Backoff
	breaker *Breaker
	queue   *Queue

	kick chan struct{}
	stop context.CancelFunc
	done chan struct{}

	sent    atomic.Uint64
	drained atomic.Uint64
	retries atomic.Uint64
	rejects atomic.Uint64
	batched atomic.Uint64
	frames  atomic.Uint64

	// sendMu serialises fast-path sends with the drain loop so buffered
	// payloads cannot be overtaken by fresh ones.
	sendMu sync.Mutex

	// pending is the open batch frame (nil = batching disabled), guarded
	// by sendMu like everything else on the send path. pendingSince is
	// when its oldest packet arrived, for the age flush.
	pending      *batch.Builder
	pendingSince time.Time
}

// NewUplink wraps inner and starts the drain loop. Callers must Close it.
func NewUplink(inner Sender, cfg Config) *Uplink {
	if inner == nil {
		panic("resilience: nil inner sender")
	}
	cfg = cfg.withDefaults()
	ctx, cancel := context.WithCancel(context.Background())
	u := &Uplink{
		inner:   inner,
		cfg:     cfg,
		backoff: NewBackoff(cfg.BackoffBase, cfg.BackoffMax, cfg.Seed),
		breaker: NewBreaker(BreakerConfig{
			FailureThreshold:  cfg.BreakerThreshold,
			OpenFor:           cfg.BreakerOpenFor,
			HalfOpenSuccesses: cfg.BreakerProbes,
			Now:               cfg.Now,
		}),
		queue: NewQueue(cfg.QueueDepth),
		kick:  make(chan struct{}, 1),
		stop:  cancel,
		done:  make(chan struct{}),
	}
	if cfg.BatchSize > 1 {
		u.pending = &batch.Builder{MaxPackets: cfg.BatchSize}
	}
	go u.drainLoop(ctx)
	return u
}

func (u *Uplink) now() time.Time {
	if u.cfg.Now != nil {
		return u.cfg.Now()
	}
	return time.Now()
}

// Send implements Sender (and gateway.Uplink).
//
// With batching enabled (Config.BatchSize > 1), packet-sized payloads
// are copied into the pending frame and Send returns nil immediately —
// the packet is this hop's responsibility, exactly as if it had been
// buffered. The frame flushes downstream at BatchSize packets or
// BatchAge, whichever first; a peer's permanent refusal of a frame is
// then counted, not returned (there is no caller left to return it to —
// the same trade the drain loop has always made for buffered payloads).
//
// Allocations: 0 per payload, 1 per batch frame, measured by TestUplinkAllocBudgets.
func (u *Uplink) Send(payload []byte) error {
	u.sendMu.Lock()
	if u.pending != nil && len(payload) == batch.PacketSize {
		if u.pending.Count() == 0 {
			u.pendingSince = u.now()
		}
		// Add copies the packet and cannot fail here: the size matched
		// and the flush below keeps the frame strictly under its cap.
		_ = u.pending.Add(payload)
		u.batched.Add(1)
		if u.pending.Count() >= u.cfg.BatchSize {
			u.flushPendingLocked(context.Background())
		}
		u.sendMu.Unlock()
		return nil
	}
	err := u.sendNowLocked(context.Background(), payload)
	u.sendMu.Unlock()
	return err
}

// sendNowLocked is Send's delivery core, called with sendMu held: try
// the peer now, buffer on transient failure, surface only permanent
// refusals.
func (u *Uplink) sendNowLocked(ctx context.Context, payload []byte) error {
	// Anything already buffered must go first: queue behind it.
	if u.queue.Len() > 0 || !u.breaker.Allow() {
		u.buffer(payload)
		return nil
	}
	err := u.trySend(ctx, payload, u.cfg.MaxAttempts)
	switch {
	case err == nil:
		u.sent.Add(1)
	case IsPermanent(err):
		u.rejects.Add(1)
		return err
	default:
		u.buffer(payload)
	}
	return nil
}

// flushPendingLocked seals the pending frame and pushes it through the
// normal delivery core, with sendMu held. The builder hands over the
// frame's buffer (it allocates a fresh one next cycle), so the frame
// can sit in the store-and-forward queue indefinitely. A permanent
// refusal is counted via sendNowLocked; there is no caller to surface
// it to.
func (u *Uplink) flushPendingLocked(ctx context.Context) {
	frame := u.pending.Take()
	if frame == nil {
		return
	}
	u.frames.Add(1)
	_ = u.sendNowLocked(ctx, frame)
}

// flushAged flushes the pending frame if its oldest packet has waited
// at least BatchAge. Called from the drain loop's age ticker.
func (u *Uplink) flushAged(ctx context.Context) {
	u.sendMu.Lock()
	if u.pending != nil && u.pending.Count() > 0 && u.now().Sub(u.pendingSince) >= u.cfg.BatchAge {
		u.flushPendingLocked(ctx)
	}
	u.sendMu.Unlock()
}

// ErrPeerDown reports that SendSync could not attempt delivery because
// the circuit breaker is open: the peer is known-down and probing is not
// yet due. It is transient — callers treat it like any failed send.
var ErrPeerDown = errors.New("resilience: peer down (breaker open)")

// SendSync attempts synchronous delivery only and reports the true
// outcome: unlike Send it never buffers, so a nil return means the peer
// accepted the payload before SendSync returned. This is the primitive
// quorum replication needs — an acknowledgement upstream must mean
// "durably delivered to W peers", and a payload parked in a
// store-and-forward queue is not that. Retries, jitter, Retry-After
// hints, and the circuit breaker all apply exactly as in Send.
//
// Allocations: 0 per payload, measured by TestUplinkAllocBudgets.
func (u *Uplink) SendSync(ctx context.Context, payload []byte) error {
	u.sendMu.Lock()
	defer u.sendMu.Unlock()
	if !u.breaker.Allow() {
		return ErrPeerDown
	}
	err := u.trySend(ctx, payload, u.cfg.MaxAttempts)
	switch {
	case err == nil:
		u.sent.Add(1)
	case IsPermanent(err):
		u.rejects.Add(1)
	}
	return err
}

// buffer enqueues payload and wakes the drain loop.
func (u *Uplink) buffer(payload []byte) {
	u.queue.Push(payload)
	select {
	case u.kick <- struct{}{}:
	default:
	}
}

// trySend makes up to attempts tries against the inner sender, sleeping
// between them, and keeps the breaker informed. When the previous
// failure carried the peer's own Retry-After hint, that hint governs —
// the peer knows its recovery timeline better than our jitter schedule
// does — but in two different ways. A hint shorter than the local
// backoff IS the sleep: an endpoint asking for 1s must not be kept
// waiting behind a 30s schedule. A hint longer than the local backoff
// ends the synchronous loop instead — trySend runs inline on datapaths
// (a gateway's UDP handler, a router's ingest), and a peer asking for
// more patience than the backoff schedule budgeted must not stall the
// caller; the hinted error is returned so Send parks the payload for
// the drain loop (which waits out the hint off the hot path, up to
// BackoffMax) and SendSync surfaces the hint for the caller's own
// shedding.
func (u *Uplink) trySend(ctx context.Context, payload []byte, attempts int) error {
	var err error
	for i := 0; i < attempts; i++ {
		if i > 0 {
			d := u.backoff.Delay(i - 1)
			if hint := retryHint(err); hint > 0 {
				if hint > d {
					return err
				}
				d = hint
			}
			u.retries.Add(1)
			u.cfg.Sleep(ctx, d)
			if ctx.Err() != nil {
				return err
			}
			if !u.breaker.Allow() {
				return err
			}
		}
		err = u.inner.Send(payload)
		if err == nil {
			u.breaker.Success()
			return nil
		}
		if IsPermanent(err) {
			// The peer made a decision; that is not an outage.
			u.breaker.Success()
			return err
		}
		u.breaker.Failure()
	}
	return err
}

// drainLoop replays the buffer in order whenever the peer allows. With
// batching enabled it also owns the age flush: a second ticker at
// BatchAge bounds how long a pending frame waits for more packets. One
// goroutine carries both duties, so the uplink's lifecycle surface is
// unchanged — Close cancels ctx and joins done exactly as before.
func (u *Uplink) drainLoop(ctx context.Context) {
	defer close(u.done)
	tick := time.NewTicker(u.cfg.DrainInterval)
	defer tick.Stop()
	var ageC <-chan time.Time
	if u.pending != nil {
		age := time.NewTicker(u.cfg.BatchAge)
		defer age.Stop()
		ageC = age.C
	}
	for {
		select {
		case <-ctx.Done():
			return
		case <-u.kick:
		case <-tick.C:
		case <-ageC:
			u.flushAged(ctx)
		}
		u.drainOnce(ctx)
	}
}

// drainOnce sends buffered payloads head-first until the queue empties,
// the breaker rejects, or a transient failure says the peer is still
// down. Payloads are only popped after a definitive outcome, so a crash
// mid-send never loses the head silently.
func (u *Uplink) drainOnce(ctx context.Context) {
	for ctx.Err() == nil {
		u.sendMu.Lock()
		p, ok := u.queue.Peek()
		if !ok {
			u.sendMu.Unlock()
			return
		}
		if !u.breaker.Allow() {
			u.sendMu.Unlock()
			return
		}
		err := u.trySend(ctx, p, 1)
		switch {
		case err == nil:
			u.queue.Pop()
			u.drained.Add(1)
			u.sendMu.Unlock()
		case IsPermanent(err):
			u.queue.Pop()
			u.rejects.Add(1)
			u.sendMu.Unlock()
		default:
			u.sendMu.Unlock()
			// Peer still down: wait out a backoff before the next probe
			// rather than spinning — or the peer's own hint, when the
			// failure carried one, but never past BackoffMax: the peer
			// sets the hint, and one asking for years would strand the
			// queue.
			d := u.backoff.Delay(0)
			if hint := retryHint(err); hint > 0 {
				d = min(hint, u.backoff.max)
			}
			u.cfg.Sleep(ctx, d)
		}
	}
}

// Flush blocks until the pending frame is dispatched and the buffer is
// empty, or ctx expires — returning an error describing what is still
// stranded in the latter case.
func (u *Uplink) Flush(ctx context.Context) error {
	if u.pending != nil {
		u.sendMu.Lock()
		u.flushPendingLocked(ctx)
		u.sendMu.Unlock()
	}
	for {
		if u.queue.Len() == 0 {
			return nil
		}
		select {
		case u.kick <- struct{}{}:
		default:
		}
		select {
		case <-ctx.Done():
			return fmt.Errorf("resilience: flush: %d payloads still buffered: %w", u.queue.Len(), ctx.Err())
		case <-time.After(10 * time.Millisecond):
		}
	}
}

// Close flushes until ctx expires, then stops the drain loop. The flush
// error (if any) is returned after shutdown completes.
func (u *Uplink) Close(ctx context.Context) error {
	err := u.Flush(ctx)
	u.stop()
	<-u.done
	return err
}

// QueueLen returns the number of buffered payloads.
func (u *Uplink) QueueLen() int { return u.queue.Len() }

// Stats returns a snapshot of the uplink's counters.
func (u *Uplink) Stats() UplinkStats {
	st := UplinkStats{
		Sent:              u.sent.Load(),
		Drained:           u.drained.Load(),
		Retries:           u.retries.Load(),
		Buffered:          u.queue.Stats().Enqueued,
		RejectedPermanent: u.rejects.Load(),
		BatchedPackets:    u.batched.Load(),
		FramesBuilt:       u.frames.Load(),
		Queue:             u.queue.Stats(),
		Breaker:           u.breaker.Stats(),
		QueueLen:          u.queue.Len(),
		State:             u.breaker.State(),
	}
	if u.pending != nil {
		u.sendMu.Lock()
		st.PendingPackets = u.pending.Count()
		u.sendMu.Unlock()
	}
	return st
}
