package resilience

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"centuryscale/internal/batch"
)

// Config tunes an Uplink. Zero fields take the defaults noted.
type Config struct {
	// BackoffBase / BackoffMax shape the drain loop's retry delays (full
	// jitter, growing with consecutive failures). Defaults 100ms / 30s.
	BackoffBase time.Duration
	BackoffMax  time.Duration
	// QueueDepth bounds the store-and-forward buffer. Default 1024.
	QueueDepth int
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
	// Now is the batch-age clock; nil means time.Now.
	Now func() time.Time
	// Sleep is the drain loop's retry sleeper; nil means a context-aware
	// timer sleep. Tests inject an instant fake.
	Sleep func(ctx context.Context, d time.Duration)
}

func (c Config) withDefaults() Config {
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
	// Sent counts payloads delivered by Send's one attempt.
	Sent uint64
	// Drained counts payloads delivered from the buffer by the drain loop.
	Drained uint64
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
	QueueLen       int
	// ConsecutiveFailures counts the transient failures since the peer
	// last answered (a delivery or a permanent refusal); it sets the
	// drain loop's backoff.
	ConsecutiveFailures int64
}

// Uplink wraps an inner Sender with store-and-forward buffering and one
// retry loop. It satisfies gateway.Uplink, so it drops into any hop of
// the real datapath.
//
// Send semantics: Send never waits out a retry. When nothing is
// buffered it makes one attempt; a transient failure parks the payload
// in the queue and Send returns nil: the packet made it off the air and
// is now this hop's responsibility. Once anything is buffered, new
// payloads queue behind it without an attempt, preserving order. A
// background drain loop — the uplink's only retry loop — replays the
// buffer in arrival order, waiting a jittered backoff that grows with
// consecutive failures (or the peer's own Retry-After) before each
// retry. Only Permanent errors (peer understood and refused) surface to
// the caller.
//
// Close flushes what it can and stops the drain loop; use Flush for a
// mid-run barrier. Safe for concurrent use.
type Uplink struct {
	inner   Sender
	cfg     Config
	backoff *Backoff
	queue   *Queue

	kick chan struct{}
	stop context.CancelFunc
	done chan struct{}

	sent    atomic.Uint64
	drained atomic.Uint64
	rejects atomic.Uint64
	batched atomic.Uint64
	frames  atomic.Uint64

	// failures counts transient failures since the peer last answered;
	// hint is the Retry-After the latest one carried (0 = none). Send
	// attempts only on an empty queue and the drain loop only on a
	// non-empty one, so their attempts never overlap.
	failures atomic.Int64
	hint     atomic.Int64
	// wake cancels the drain loop's current backoff wait (nil when it
	// is not waiting), so Flush can probe the peer at once.
	wake atomic.Pointer[context.CancelFunc]

	// sendMu serializes Send, so a payload is buffered or attempted
	// whole, and a concurrent Send cannot attempt past one being parked.
	// The drain loop never takes it.
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
		queue:   NewQueue(cfg.QueueDepth),
		kick:    make(chan struct{}, 1),
		stop:    cancel,
		done:    make(chan struct{}),
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
			u.flushPendingLocked()
		}
		u.sendMu.Unlock()
		return nil
	}
	err := u.sendNowLocked(payload)
	u.sendMu.Unlock()
	return err
}

// sendNowLocked is Send's delivery core, called with sendMu held: one
// attempt on an empty queue, buffer on transient failure, surface only
// permanent refusals.
func (u *Uplink) sendNowLocked(payload []byte) error {
	// Anything already buffered must go first: queue behind it.
	if u.queue.Len() > 0 {
		u.buffer(payload)
		return nil
	}
	switch err := u.attempt(payload); {
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
func (u *Uplink) flushPendingLocked() {
	frame := u.pending.Take()
	if frame == nil {
		return
	}
	u.frames.Add(1)
	_ = u.sendNowLocked(frame)
}

// flushAged flushes the pending frame if its oldest packet has waited
// at least BatchAge. Called from the drain loop's age ticker.
func (u *Uplink) flushAged() {
	u.sendMu.Lock()
	if u.pending != nil && u.pending.Count() > 0 && u.now().Sub(u.pendingSince) >= u.cfg.BatchAge {
		u.flushPendingLocked()
	}
	u.sendMu.Unlock()
}

// buffer enqueues payload and wakes the drain loop.
func (u *Uplink) buffer(payload []byte) {
	u.queue.Push(payload)
	select {
	case u.kick <- struct{}{}:
	default:
	}
}

// attempt makes one try against the inner sender and records the
// outcome: a delivery or a permanent refusal (the peer made a decision;
// that is not an outage) resets the failure count, and a transient
// failure bumps it and keeps the peer's Retry-After hint, if any.
func (u *Uplink) attempt(payload []byte) error {
	err := u.inner.Send(payload)
	if err == nil || IsPermanent(err) {
		u.failures.Store(0)
		return err
	}
	u.hint.Store(int64(retryHint(err)))
	u.failures.Add(1)
	return err
}

// retryDelay is the wait before the next probe after n consecutive
// transient failures: the jittered Backoff.Delay(n-1), so successive
// waits follow Delay(0), Delay(1), … up to BackoffMax. When the latest
// failure carried the peer's own Retry-After hint, the hint replaces the
// schedule — the peer knows its recovery timeline better than our
// jitter does — but never past BackoffMax: the peer sets the hint, and
// one asking for years would strand the queue.
func (u *Uplink) retryDelay(n int64) time.Duration {
	if hint := time.Duration(u.hint.Load()); hint > 0 {
		return min(hint, u.backoff.max)
	}
	return u.backoff.Delay(int(n - 1))
}

// drainLoop replays the buffer in order whenever it is kicked. With
// batching enabled it also owns the age flush: a ticker at BatchAge
// bounds how long a pending frame waits for more packets. One goroutine
// carries both duties, so Close cancels ctx and joins done.
func (u *Uplink) drainLoop(ctx context.Context) {
	defer close(u.done)
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
		case <-ageC:
			u.flushAged()
		}
		u.drainOnce(ctx)
	}
}

// wait sleeps d on the drain loop, or until ctx ends or Flush wakes it.
func (u *Uplink) wait(ctx context.Context, d time.Duration) {
	wctx, cancel := context.WithCancel(ctx)
	u.wake.Store(&cancel)
	u.cfg.Sleep(wctx, d)
	u.wake.Store(nil)
	cancel()
}

// drainOnce sends buffered payloads head-first until the queue empties
// or ctx ends, waiting out retryDelay before each probe that follows a
// transient failure. It holds no lock across a request — only the
// queue's own, to peek and to pop — so a Send never waits on a probe of
// a hung peer. A payload is popped only after a definitive outcome, so
// a crash mid-send never loses the head silently; and Pop removes only
// the payload that was peeked: if drop-oldest evicted it while it was
// in flight, the eviction already counted it as dropped, not drained.
func (u *Uplink) drainOnce(ctx context.Context) {
	for u.queue.Len() > 0 {
		if n := u.failures.Load(); n > 0 {
			u.wait(ctx, u.retryDelay(n))
		}
		if ctx.Err() != nil {
			return
		}
		p, pos, ok := u.queue.Peek()
		if !ok {
			return
		}
		switch err := u.attempt(p); {
		case err == nil:
			if u.queue.Pop(pos) {
				u.drained.Add(1)
			}
		case IsPermanent(err):
			if u.queue.Pop(pos) {
				u.rejects.Add(1)
			}
		}
	}
}

// Flush blocks until the pending frame is dispatched and the buffer is
// empty, or ctx expires — returning an error describing what is still
// stranded in the latter case. It cuts the drain loop's current backoff
// wait short once, so a shutdown flush probes a peer that has recovered
// now rather than after up to BackoffMax; later retries keep the
// schedule.
func (u *Uplink) Flush(ctx context.Context) error {
	if u.pending != nil {
		u.sendMu.Lock()
		u.flushPendingLocked()
		u.sendMu.Unlock()
	}
	if cancel := u.wake.Load(); cancel != nil {
		(*cancel)()
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
		Sent:                u.sent.Load(),
		Drained:             u.drained.Load(),
		Buffered:            u.queue.Stats().Enqueued,
		RejectedPermanent:   u.rejects.Load(),
		BatchedPackets:      u.batched.Load(),
		FramesBuilt:         u.frames.Load(),
		Queue:               u.queue.Stats(),
		QueueLen:            u.queue.Len(),
		ConsecutiveFailures: u.failures.Load(),
	}
	if u.pending != nil {
		u.sendMu.Lock()
		st.PendingPackets = u.pending.Count()
		u.sendMu.Unlock()
	}
	return st
}
