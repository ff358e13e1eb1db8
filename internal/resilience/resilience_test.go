package resilience

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"centuryscale/internal/batch"
)

func TestPermanentMarking(t *testing.T) {
	if Permanent(nil) != nil {
		t.Fatal("Permanent(nil) != nil")
	}
	base := errors.New("rejected")
	p := Permanent(base)
	if !IsPermanent(p) {
		t.Fatal("Permanent not detected")
	}
	if !errors.Is(p, base) {
		t.Fatal("Permanent does not unwrap to cause")
	}
	wrapped := fmt.Errorf("hop: %w", p)
	if !IsPermanent(wrapped) {
		t.Fatal("Permanent lost through wrapping")
	}
	if IsPermanent(base) {
		t.Fatal("plain error reported permanent")
	}
}

func TestRetryAfterHint(t *testing.T) {
	e := &RetryAfterError{After: 3 * time.Second, Err: errors.New("overloaded")}
	if got := retryHint(fmt.Errorf("send: %w", e)); got != 3*time.Second {
		t.Fatalf("retryHint = %v", got)
	}
	if got := retryHint(errors.New("plain")); got != 0 {
		t.Fatalf("retryHint(plain) = %v", got)
	}
	if !errors.As(error(e), new(*RetryAfterError)) {
		t.Fatal("RetryAfterError not As-able")
	}
}

func TestBackoffBoundsAndDeterminism(t *testing.T) {
	b := NewBackoff(100*time.Millisecond, time.Second, 7)
	for attempt := 0; attempt < 10; attempt++ {
		ceil := b.ceiling(attempt)
		want := 100 * time.Millisecond << uint(attempt)
		if want > time.Second || want < 0 {
			want = time.Second
		}
		if ceil != want {
			t.Fatalf("ceiling(%d) = %v, want %v", attempt, ceil, want)
		}
		for i := 0; i < 50; i++ {
			d := b.Delay(attempt)
			if d < 0 || d > ceil {
				t.Fatalf("Delay(%d) = %v outside [0,%v]", attempt, d, ceil)
			}
		}
	}
	// Same seed replays the same jitter sequence.
	x, y := NewBackoff(time.Millisecond, time.Second, 42), NewBackoff(time.Millisecond, time.Second, 42)
	for i := 0; i < 100; i++ {
		if x.Delay(i%8) != y.Delay(i%8) {
			t.Fatalf("seeded backoff diverged at draw %d", i)
		}
	}
}

func TestBackoffOverflowGuard(t *testing.T) {
	b := NewBackoff(time.Hour, 100*365*24*time.Hour, 1)
	if got := b.ceiling(200); got != b.max {
		t.Fatalf("overflowed ceiling = %v", got)
	}
}

func TestBreakerLifecycle(t *testing.T) {
	now := time.Unix(0, 0)
	clock := func() time.Time { return now }
	b := NewBreaker(BreakerConfig{FailureThreshold: 3, OpenFor: time.Minute, HalfOpenSuccesses: 2, Now: clock})

	if b.State() != BreakerClosed || !b.Allow() {
		t.Fatal("new breaker not closed")
	}
	// Two failures, then a success: the consecutive count resets.
	b.Failure()
	b.Failure()
	b.Success()
	b.Failure()
	b.Failure()
	if b.State() != BreakerClosed {
		t.Fatal("tripped before threshold of consecutive failures")
	}
	b.Failure()
	if b.State() != BreakerOpen {
		t.Fatal("did not trip at threshold")
	}
	if b.Allow() {
		t.Fatal("open breaker allowed a call")
	}
	// Window elapses: probes allowed.
	now = now.Add(time.Minute)
	if !b.Allow() || b.State() != BreakerHalfOpen {
		t.Fatalf("no half-open transition: %v", b.State())
	}
	// A probe failure re-opens immediately.
	b.Failure()
	if b.State() != BreakerOpen {
		t.Fatal("probe failure did not re-open")
	}
	now = now.Add(time.Minute)
	if !b.Allow() {
		t.Fatal("second probe window refused")
	}
	b.Success()
	if b.State() != BreakerHalfOpen {
		t.Fatal("closed before enough probe successes")
	}
	b.Success()
	if b.State() != BreakerClosed {
		t.Fatal("did not close after probe successes")
	}
	st := b.Stats()
	if st.Trips != 2 || st.Rejected == 0 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestQueueFIFOAndDropOldest(t *testing.T) {
	q := NewQueue(3)
	for i := 0; i < 3; i++ {
		if q.Push([]byte{byte(i)}) {
			t.Fatalf("push %d evicted", i)
		}
	}
	if !q.Push([]byte{3}) {
		t.Fatal("overflow push did not evict")
	}
	if q.Len() != 3 {
		t.Fatalf("len = %d", q.Len())
	}
	// Oldest (0) evicted: order is 1,2,3.
	for want := byte(1); want <= 3; want++ {
		p, ok := q.Pop()
		if !ok || p[0] != want {
			t.Fatalf("pop = %v %v, want [%d]", p, ok, want)
		}
	}
	if _, ok := q.Pop(); ok {
		t.Fatal("pop from empty succeeded")
	}
	st := q.Stats()
	if st.Enqueued != 4 || st.Dequeued != 3 || st.DroppedOldest != 1 || st.HighWater != 3 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestQueueWrapAround(t *testing.T) {
	q := NewQueue(4)
	seq := byte(0)
	for round := 0; round < 10; round++ {
		for i := 0; i < 3; i++ {
			q.Push([]byte{seq})
			seq++
		}
		for i := 0; i < 3; i++ {
			p, ok := q.Pop()
			if !ok {
				t.Fatal("pop failed")
			}
			if want := seq - 3 + byte(i); p[0] != want {
				t.Fatalf("round %d: pop = %d, want %d", round, p[0], want)
			}
		}
	}
}

// flakySender fails transiently for the first failN calls, then succeeds,
// recording the order payloads arrive in.
type flakySender struct {
	mu    sync.Mutex
	failN int
	calls int
	got   [][]byte
}

func (f *flakySender) Send(p []byte) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.calls++
	if f.calls <= f.failN {
		return errors.New("transient")
	}
	f.got = append(f.got, append([]byte(nil), p...))
	return nil
}

func (f *flakySender) received() [][]byte {
	f.mu.Lock()
	defer f.mu.Unlock()
	return append([][]byte(nil), f.got...)
}

func instantSleep(context.Context, time.Duration) {}

func testConfig() Config {
	return Config{
		MaxAttempts:      2,
		BackoffBase:      time.Microsecond,
		BackoffMax:       10 * time.Microsecond,
		BreakerThreshold: 3,
		BreakerOpenFor:   time.Millisecond,
		QueueDepth:       64,
		DrainInterval:    time.Millisecond,
		Seed:             1,
		Sleep:            instantSleep,
	}
}

func TestUplinkHappyPath(t *testing.T) {
	inner := &flakySender{}
	u := NewUplink(inner, testConfig())
	defer u.Close(context.Background())
	for i := 0; i < 5; i++ {
		if err := u.Send([]byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	st := u.Stats()
	if st.Sent != 5 || st.Buffered != 0 || st.Retries != 0 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestUplinkRetriesTransient(t *testing.T) {
	inner := &flakySender{failN: 1} // first call fails, retry succeeds
	u := NewUplink(inner, testConfig())
	defer u.Close(context.Background())
	if err := u.Send([]byte{1}); err != nil {
		t.Fatal(err)
	}
	st := u.Stats()
	if st.Sent != 1 || st.Retries != 1 || st.Buffered != 0 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestUplinkPermanentSurfaces(t *testing.T) {
	reject := Permanent(errors.New("unknown device"))
	u := NewUplink(SenderFunc(func([]byte) error { return reject }), testConfig())
	defer u.Close(context.Background())
	err := u.Send([]byte{1})
	if err == nil || !IsPermanent(err) {
		t.Fatalf("err = %v", err)
	}
	st := u.Stats()
	if st.Buffered != 0 || st.RejectedPermanent != 1 || st.Retries != 0 {
		t.Fatalf("permanent error buffered or retried: %+v", st)
	}
}

func TestUplinkBuffersOutageAndDrainsInOrder(t *testing.T) {
	var down sync.Mutex
	isDown := true
	var got [][]byte
	inner := SenderFunc(func(p []byte) error {
		down.Lock()
		defer down.Unlock()
		if isDown {
			return errors.New("connection refused")
		}
		got = append(got, append([]byte(nil), p...))
		return nil
	})
	cfg := testConfig()
	// Threshold 2 = the first Send's two failed attempts trip the breaker
	// deterministically, before the recovery below.
	cfg.BreakerThreshold = 2
	u := NewUplink(inner, cfg)
	defer u.Close(context.Background())

	for i := 0; i < 20; i++ {
		if err := u.Send([]byte{byte(i)}); err != nil {
			t.Fatalf("send %d during outage: %v", i, err)
		}
	}
	if st := u.Stats(); st.Queue.Enqueued == 0 {
		t.Fatalf("nothing buffered during outage: %+v", st)
	}

	down.Lock()
	isDown = false
	down.Unlock()

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := u.Flush(ctx); err != nil {
		t.Fatalf("flush: %v (stats %+v)", err, u.Stats())
	}
	down.Lock()
	defer down.Unlock()
	if len(got) != 20 {
		t.Fatalf("delivered %d of 20", len(got))
	}
	for i, p := range got {
		if p[0] != byte(i) {
			t.Fatalf("out of order at %d: got %d", i, p[0])
		}
	}
	st := u.Stats()
	if st.Breaker.Trips == 0 {
		t.Fatalf("breaker never tripped during outage: %+v", st)
	}
	if st.QueueLen != 0 {
		t.Fatalf("queue not empty after flush: %+v", st)
	}
}

func TestUplinkOrderPreservedWhenQueueNonEmpty(t *testing.T) {
	// While anything is buffered, new sends must queue behind it even if
	// the peer is healthy again — no overtaking.
	inner := &flakySender{}
	cfg := testConfig()
	cfg.DrainInterval = time.Hour // drain only when kicked by Send/Flush
	u := NewUplink(inner, cfg)
	defer u.Close(context.Background())

	u.queue.Push([]byte{0}) // pre-buffered payload, drain not yet kicked
	if err := u.Send([]byte{1}); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := u.Flush(ctx); err != nil {
		t.Fatal(err)
	}
	got := inner.received()
	if len(got) != 2 || got[0][0] != 0 || got[1][0] != 1 {
		t.Fatalf("order = %v", got)
	}
}

func TestUplinkCloseReportsStranded(t *testing.T) {
	u := NewUplink(SenderFunc(func([]byte) error { return errors.New("down forever") }), testConfig())
	for i := 0; i < 4; i++ {
		_ = u.Send([]byte{byte(i)})
	}
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	if err := u.Close(ctx); err == nil {
		t.Fatal("close with stranded payloads reported success")
	}
}

func TestUplinkConcurrentSends(t *testing.T) {
	// Hammer the uplink from many goroutines across an outage window;
	// run under -race to check the locking. Every payload must come out
	// exactly once.
	var down sync.Mutex
	isDown := true
	seen := make(map[byte]int)
	inner := SenderFunc(func(p []byte) error {
		down.Lock()
		defer down.Unlock()
		if isDown {
			return errors.New("outage")
		}
		seen[p[0]]++
		return nil
	})
	cfg := testConfig()
	cfg.QueueDepth = 256
	u := NewUplink(inner, cfg)
	defer u.Close(context.Background())

	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 16; i++ {
				_ = u.Send([]byte{byte(g*16 + i)})
			}
		}(g)
	}
	wg.Wait()
	down.Lock()
	isDown = false
	down.Unlock()

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := u.Flush(ctx); err != nil {
		t.Fatalf("flush: %v", err)
	}
	down.Lock()
	defer down.Unlock()
	if len(seen) != 128 {
		t.Fatalf("delivered %d distinct of 128", len(seen))
	}
	for k, n := range seen {
		if n != 1 {
			t.Fatalf("payload %d delivered %d times", k, n)
		}
	}
}

// TestBackoffCeilingBoundary is the overflow boundary table for the
// exponential ceiling: a node that has been down for hours drives the
// attempt counter far past the point where base<<attempt wraps int64,
// and the ceiling must clamp to max instead of wrapping negative (which
// would panic the jitter draw) or tiny (which would turn a 30s cap into
// a hot retry loop).
func TestBackoffCeilingBoundary(t *testing.T) {
	maxDur := time.Duration(math.MaxInt64)
	cases := []struct {
		name      string
		base, max time.Duration
		attempt   int
		want      time.Duration
	}{
		{"attempt0", 100 * time.Millisecond, 30 * time.Second, 0, 100 * time.Millisecond},
		{"negativeAttempt", 100 * time.Millisecond, 30 * time.Second, -5, 100 * time.Millisecond},
		{"doubling", 100 * time.Millisecond, 30 * time.Second, 3, 800 * time.Millisecond},
		{"hitsCapExactly", time.Second, 8 * time.Second, 3, 8 * time.Second},
		{"justUnderCap", time.Second, 9 * time.Second, 3, 8 * time.Second},
		{"pastCap", 100 * time.Millisecond, 30 * time.Second, 20, 30 * time.Second},
		{"shiftBoundary62", 1, maxDur, 62, 1 << 62},
		{"shiftBoundary63", 1, maxDur, 63, maxDur},
		{"shiftBoundary64", 1, maxDur, 64, maxDur},
		{"hoursOfAttempts", 100 * time.Millisecond, 30 * time.Second, 100_000, 30 * time.Second},
		{"hugeBaseHugeAttempt", maxDur / 2, maxDur, 1 << 30, maxDur},
		{"intMaxAttempt", 100 * time.Millisecond, 30 * time.Second, math.MaxInt, 30 * time.Second},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			b := NewBackoff(tc.base, tc.max, 1)
			if got := b.ceiling(tc.attempt); got != tc.want {
				t.Fatalf("ceiling(%d) with base=%v max=%v: got %v, want %v", tc.attempt, tc.base, tc.max, got, tc.want)
			}
		})
	}

	// The ceiling must be monotone non-decreasing in attempt — a wrap
	// anywhere shows up as a decrease.
	b := NewBackoff(3*time.Millisecond, maxDur, 1)
	prev := time.Duration(0)
	for attempt := 0; attempt < 200; attempt++ {
		c := b.ceiling(attempt)
		if c < prev {
			t.Fatalf("ceiling decreased at attempt %d: %v -> %v", attempt, prev, c)
		}
		if c <= 0 {
			t.Fatalf("non-positive ceiling at attempt %d: %v", attempt, c)
		}
		prev = c
	}
}

// TestBackoffDelayAtMaxInt64Ceiling drives Delay at the topmost ceiling,
// where the exclusive-bound adjustment int64(ceil)+1 would overflow.
func TestBackoffDelayAtMaxInt64Ceiling(t *testing.T) {
	b := NewBackoff(time.Duration(math.MaxInt64), time.Duration(math.MaxInt64), 7)
	for i := 0; i < 10; i++ {
		d := b.Delay(100)
		if d < 0 {
			t.Fatalf("negative delay %v", d)
		}
	}
}

// recordingSleep captures the durations a retry loop decides to sleep.
type recordingSleep struct {
	mu   sync.Mutex
	durs []time.Duration
}

func (r *recordingSleep) sleep(_ context.Context, d time.Duration) {
	r.mu.Lock()
	r.durs = append(r.durs, d)
	r.mu.Unlock()
}

func (r *recordingSleep) slept() []time.Duration {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]time.Duration(nil), r.durs...)
}

// TestUplinkHonorsPeerRetryAfter sends through Uplink.Send against a
// peer whose 503s carry a Retry-After hint, with the uplink's own
// backoff schedule configured far larger than the hint. The retry sleep
// must be exactly the peer's hint — the hint replaces the local
// schedule, it is not merely a floor under it.
func TestUplinkHonorsPeerRetryAfter(t *testing.T) {
	const hint = 700 * time.Millisecond
	rec := &recordingSleep{}
	calls := 0
	inner := SenderFunc(func([]byte) error {
		calls++
		if calls == 1 {
			return &RetryAfterError{After: hint, Err: errors.New("shedding")}
		}
		return nil
	})
	cfg := testConfig()
	cfg.MaxAttempts = 2
	// Own schedule would sleep somewhere in (1h, 2h]: full jitter can
	// draw small values from a large ceiling, so force the floor up to
	// make "used own backoff" and "used peer hint" disjoint.
	cfg.BackoffBase = 2 * time.Hour
	cfg.BackoffMax = 2 * time.Hour
	cfg.Sleep = rec.sleep
	u := NewUplink(inner, cfg)
	defer u.Close(context.Background())

	if err := u.Send([]byte{1}); err != nil {
		t.Fatal(err)
	}
	slept := rec.slept()
	if len(slept) != 1 {
		t.Fatalf("slept %d times, want 1 (%v)", len(slept), slept)
	}
	if slept[0] != hint {
		t.Fatalf("slept %v, want the peer hint %v", slept[0], hint)
	}

	// The converse direction must NOT block the caller: a hint longer
	// than the local schedule ends the synchronous loop, Send parks the
	// payload, and the drain loop delivers it — the peer is still not
	// hammered before its hint, but the datapath calling Send (a
	// gateway's UDP handler) is never held hostage for 90 minutes.
	rec2 := &recordingSleep{}
	var calls2 atomic.Int64
	long := 90 * time.Minute
	inner2 := SenderFunc(func([]byte) error {
		if calls2.Add(1) == 1 {
			return &RetryAfterError{After: long, Err: errors.New("shedding")}
		}
		return nil
	})
	cfg2 := testConfig()
	cfg2.MaxAttempts = 2
	cfg2.BackoffBase = time.Millisecond
	cfg2.BackoffMax = time.Millisecond
	cfg2.Sleep = rec2.sleep
	u2 := NewUplink(inner2, cfg2)
	defer u2.Close(context.Background())
	if err := u2.Send([]byte{1}); err != nil {
		t.Fatal(err)
	}
	flushCtx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := u2.Flush(flushCtx); err != nil {
		t.Fatal(err)
	}
	for _, d := range rec2.slept() {
		if d == long {
			t.Fatalf("synchronous path slept the full %v hint; it must hand off to the buffer instead", long)
		}
	}
	st := u2.Stats()
	if st.Buffered != 1 || st.Drained != 1 {
		t.Fatalf("payload not delivered via the buffer: %+v", st)
	}
}

// TestUplinkSendSyncNeverBuffers pins the quorum-replication contract:
// SendSync reports the true delivery outcome and leaves nothing in the
// store-and-forward queue.
func TestUplinkSendSyncNeverBuffers(t *testing.T) {
	inner := &flakySender{failN: 1000} // down for the whole test
	u := NewUplink(inner, testConfig())
	defer u.Close(context.Background())

	if err := u.SendSync(context.Background(), []byte{1}); err == nil {
		t.Fatal("SendSync against a dead peer reported success")
	}
	if n := u.QueueLen(); n != 0 {
		t.Fatalf("SendSync buffered %d payloads", n)
	}
	st := u.Stats()
	if st.Sent != 0 || st.Buffered != 0 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestUplinkSendSyncDelivers(t *testing.T) {
	inner := &flakySender{failN: 1} // first try fails, retry lands
	u := NewUplink(inner, testConfig())
	defer u.Close(context.Background())
	if err := u.SendSync(context.Background(), []byte{42}); err != nil {
		t.Fatal(err)
	}
	st := u.Stats()
	if st.Sent != 1 || st.Retries != 1 || st.Buffered != 0 {
		t.Fatalf("stats = %+v", st)
	}
	got := inner.received()
	if len(got) != 1 || got[0][0] != 42 {
		t.Fatalf("received %v", got)
	}
}

func TestUplinkSendSyncBreakerOpen(t *testing.T) {
	inner := &flakySender{failN: 1000}
	cfg := testConfig()
	cfg.BreakerThreshold = 2
	cfg.BreakerOpenFor = time.Hour
	u := NewUplink(inner, cfg)
	defer u.Close(context.Background())
	_ = u.SendSync(context.Background(), []byte{1}) // trips the breaker
	err := u.SendSync(context.Background(), []byte{2})
	if !errors.Is(err, ErrPeerDown) {
		t.Fatalf("err = %v, want ErrPeerDown", err)
	}
}

func TestUplinkSendSyncPermanentSurfaces(t *testing.T) {
	u := NewUplink(SenderFunc(func([]byte) error { return Permanent(errors.New("refused")) }), testConfig())
	defer u.Close(context.Background())
	err := u.SendSync(context.Background(), []byte{1})
	if err == nil || !IsPermanent(err) {
		t.Fatalf("err = %v", err)
	}
	if st := u.Stats(); st.RejectedPermanent != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

// TestUplinkAllocBudgets pins the gateway datapath's allocation budgets
// against a peer that accepts everything: an unbatched Send and a
// SendSync cost 0 allocations per payload, and with batching on a full
// frame costs 1 — the builder's buffer, handed downstream — whether it
// holds 16 packets or 256.
func TestUplinkAllocBudgets(t *testing.T) {
	accept := SenderFunc(func([]byte) error { return nil })
	cfg := testConfig()
	// Keep the drain loop asleep: AllocsPerRun counts every goroutine.
	cfg.DrainInterval = time.Hour
	packet := make([]byte, batch.PacketSize)

	u := NewUplink(accept, cfg)
	defer u.Close(context.Background())
	if got := testing.AllocsPerRun(1000, func() {
		if err := u.Send(packet); err != nil {
			t.Fatal(err)
		}
	}); got != 0 {
		t.Errorf("Send allocates %.0f times per payload, want 0", got)
	}
	ctx := context.Background()
	if got := testing.AllocsPerRun(1000, func() {
		if err := u.SendSync(ctx, packet); err != nil {
			t.Fatal(err)
		}
	}); got != 0 {
		t.Errorf("SendSync allocates %.0f times per payload, want 0", got)
	}

	for _, size := range []int{16, 256} {
		cfg.BatchSize, cfg.BatchAge = size, time.Hour
		u := NewUplink(accept, cfg)
		defer u.Close(context.Background())
		if got := testing.AllocsPerRun(100, func() {
			for i := 0; i < size; i++ {
				if err := u.Send(packet); err != nil {
					t.Fatal(err)
				}
			}
		}); got != 1 {
			t.Errorf("batched Send allocates %.0f times per %d-packet frame, want 1", got, size)
		}
		if st := u.Stats(); st.FramesBuilt != 101 || st.PendingPackets != 0 {
			t.Errorf("batch size %d: %+v, want 101 whole frames", size, st)
		}
	}
}

// TestDrainCapsPeerRetryAfter: the drain loop waits out a peer's
// Retry-After hint, but never past BackoffMax. The hint is the peer's to
// set, and one asking for 95 years — or the most a Duration holds — must
// not stop a gateway's store-and-forward queue from draining.
func TestDrainCapsPeerRetryAfter(t *testing.T) {
	const backoffMax = 30 * time.Second
	for _, tc := range []struct {
		hint, want time.Duration
	}{
		{time.Second, time.Second},
		{backoffMax, backoffMax},
		{95 * 365 * 24 * time.Hour, backoffMax},
		{math.MaxInt64, backoffMax},
	} {
		rec := &recordingSleep{}
		var calls atomic.Int64
		// Refused with the hint twice — the synchronous attempt, which
		// parks the payload, and the drain loop's first — then accepted.
		inner := SenderFunc(func([]byte) error {
			if calls.Add(1) <= 2 {
				return &RetryAfterError{After: tc.hint, Err: errors.New("shedding")}
			}
			return nil
		})
		cfg := testConfig()
		cfg.BackoffBase = time.Millisecond
		cfg.BackoffMax = backoffMax
		cfg.Sleep = rec.sleep
		u := NewUplink(inner, cfg)
		if err := u.Send([]byte{1}); err != nil {
			t.Fatal(err)
		}
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		if err := u.Close(ctx); err != nil {
			t.Fatalf("hint %v: %v", tc.hint, err)
		}
		cancel()
		if slept := rec.slept(); len(slept) != 1 || slept[0] != tc.want {
			t.Errorf("hint %v: the drain loop slept %v, want [%v]", tc.hint, slept, tc.want)
		}
	}
}
