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

// pop peeks the head and pops it by its position.
func pop(q *Queue) ([]byte, bool) {
	p, pos, ok := q.Peek()
	if ok && !q.Pop(pos) {
		panic("pop of a just-peeked head failed")
	}
	return p, ok
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
		p, ok := pop(q)
		if !ok || p[0] != want {
			t.Fatalf("pop = %v %v, want [%d]", p, ok, want)
		}
	}
	if _, ok := pop(q); ok {
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
			p, ok := pop(q)
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

// testConfig keeps the real sleeper: the drain loop's waits of at most
// 10µs yield the processor while a test holds its peer down.
func testConfig() Config {
	return Config{
		BackoffBase: time.Microsecond,
		BackoffMax:  10 * time.Microsecond,
		QueueDepth:  64,
		Seed:        1,
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
	if st.Sent != 5 || st.Buffered != 0 || st.ConsecutiveFailures != 0 {
		t.Fatalf("stats = %+v", st)
	}
}

// TestSendMakesOneAttemptAndNeverSleeps: a transient failure on an
// empty queue parks the payload. Send returns nil after exactly one
// attempt and never calls Config.Sleep on the caller's goroutine — here
// the sleeper blocks until released, so a Send that slept would hang —
// and the drain loop delivers the payload once the sleep ends.
func TestSendMakesOneAttemptAndNeverSleeps(t *testing.T) {
	inner := &flakySender{failN: 1}
	release := make(chan struct{})
	var released sync.Once
	cfg := testConfig()
	cfg.Sleep = func(ctx context.Context, _ time.Duration) {
		select {
		case <-release:
		case <-ctx.Done():
		}
	}
	u := NewUplink(inner, cfg)
	defer u.Close(context.Background())
	defer released.Do(func() { close(release) })

	sent := make(chan error, 1)
	go func() { sent <- u.Send([]byte{7}) }()
	select {
	case err := <-sent:
		if err != nil {
			t.Fatalf("Send = %v, want nil: a transient failure is buffered", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("Send slept on the caller's goroutine")
	}
	inner.mu.Lock()
	calls := inner.calls
	inner.mu.Unlock()
	if calls != 1 {
		t.Fatalf("Send made %d attempts, want 1", calls)
	}
	if st := u.Stats(); st.Sent != 0 || st.Buffered != 1 {
		t.Fatalf("after the failed attempt: %+v, want the payload buffered", st)
	}

	released.Do(func() { close(release) })
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := u.Flush(ctx); err != nil {
		t.Fatal(err)
	}
	if got := inner.received(); len(got) != 1 || got[0][0] != 7 {
		t.Fatalf("delivered %v, want [[7]]", got)
	}
	if st := u.Stats(); st.Drained != 1 {
		t.Fatalf("stats = %+v, want the payload drained", st)
	}
}

// TestDrainBackoffGrowsWithFailures: while the peer stays down, the
// drain loop's successive waits are Delay(0), Delay(1), … of the
// uplink's own seeded schedule, capped at BackoffMax, and the
// consecutive-failure count climbs with them.
func TestDrainBackoffGrowsWithFailures(t *testing.T) {
	const fails = 9 // Send's attempt and the drain loop's first 8 probes
	inner := &flakySender{failN: fails}
	rec := &recordingSleep{}
	cfg := testConfig()
	cfg.BackoffBase = time.Millisecond
	cfg.BackoffMax = 8 * time.Millisecond
	cfg.Seed = 42
	cfg.Sleep = rec.sleep
	u := NewUplink(inner, cfg)
	defer u.Close(context.Background())
	if err := u.Send([]byte{1}); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := u.Flush(ctx); err != nil {
		t.Fatal(err)
	}
	ref := NewBackoff(cfg.BackoffBase, cfg.BackoffMax, cfg.Seed)
	slept := rec.slept()
	if len(slept) != fails {
		t.Fatalf("slept %d times, want one wait before each of %d retries: %v", len(slept), fails, slept)
	}
	for i, d := range slept {
		if want := ref.Delay(i); d != want || d > cfg.BackoffMax {
			t.Errorf("wait %d = %v, want Delay(%d) = %v (cap %v)", i, d, i, want, cfg.BackoffMax)
		}
	}
	if st := u.Stats(); st.Drained != 1 || st.ConsecutiveFailures != 0 {
		t.Fatalf("stats = %+v, want drained with the failure count reset", st)
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
	if st.Buffered != 0 || st.RejectedPermanent != 1 || st.ConsecutiveFailures != 0 {
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
	u := NewUplink(inner, testConfig())
	defer u.Close(context.Background())

	for i := 0; i < 20; i++ {
		if err := u.Send([]byte{byte(i)}); err != nil {
			t.Fatalf("send %d during outage: %v", i, err)
		}
	}
	if st := u.Stats(); st.Queue.Enqueued != 20 || st.ConsecutiveFailures == 0 {
		t.Fatalf("outage not buffered whole, or not counted: %+v", st)
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
	if st.Sent != 0 || st.Drained != 20 || st.ConsecutiveFailures != 0 {
		t.Fatalf("want all 20 drained and the failure count reset: %+v", st)
	}
	if st.QueueLen != 0 {
		t.Fatalf("queue not empty after flush: %+v", st)
	}
}

func TestUplinkOrderPreservedWhenQueueNonEmpty(t *testing.T) {
	// While anything is buffered, new sends must queue behind it even if
	// the peer is healthy again — no overtaking.
	inner := &flakySender{}
	u := NewUplink(inner, testConfig())
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

// TestFlushWakesDrainBackoff: a flush — the daemons' shutdown path —
// probes at once, not after the drain loop's backoff. The schedule here
// waits up to an hour; the peer is back after Send's failed attempt, and
// Flush must deliver well inside its 5 s budget.
func TestFlushWakesDrainBackoff(t *testing.T) {
	inner := &flakySender{failN: 1}
	cfg := testConfig()
	cfg.BackoffBase = time.Hour
	cfg.BackoffMax = time.Hour
	u := NewUplink(inner, cfg)
	defer func() {
		// Bounded: without the wake the drain loop sleeps for an hour.
		ctx, cancel := context.WithTimeout(context.Background(), time.Second)
		defer cancel()
		_ = u.Close(ctx)
	}()
	if err := u.Send([]byte{1}); err != nil {
		t.Fatal(err)
	}
	// Let the drain loop enter its wait before the flush.
	for deadline := time.Now().Add(5 * time.Second); u.wake.Load() == nil; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("the drain loop never started its backoff wait")
		}
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := u.Flush(ctx); err != nil {
		t.Fatalf("flush against a recovered peer: %v", err)
	}
	if st := u.Stats(); st.Drained != 1 {
		t.Fatalf("stats = %+v, want the payload drained", st)
	}
}

// TestUplinkHonorsPeerRetryAfter runs against a peer whose 503 carries
// a Retry-After hint, with the uplink's own backoff schedule configured
// far larger than the hint. Send parks the payload without sleeping,
// and the drain loop's wait is exactly the peer's hint — the hint
// replaces the local schedule, it is not merely a floor under it.
func TestUplinkHonorsPeerRetryAfter(t *testing.T) {
	const hint = 700 * time.Millisecond
	rec := &recordingSleep{}
	var calls atomic.Int64
	inner := SenderFunc(func([]byte) error {
		if calls.Add(1) == 1 {
			return &RetryAfterError{After: hint, Err: errors.New("shedding")}
		}
		return nil
	})
	cfg := testConfig()
	// Own schedule would sleep somewhere in [0, 2h]: "used own backoff"
	// and "used peer hint" are told apart by the exact value.
	cfg.BackoffBase = 2 * time.Hour
	cfg.BackoffMax = 2 * time.Hour
	cfg.Sleep = rec.sleep
	u := NewUplink(inner, cfg)
	defer u.Close(context.Background())

	if err := u.Send([]byte{1}); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := u.Flush(ctx); err != nil {
		t.Fatal(err)
	}
	if slept := rec.slept(); len(slept) != 1 || slept[0] != hint {
		t.Fatalf("slept %v, want [%v], the peer hint", slept, hint)
	}
	if st := u.Stats(); st.Buffered != 1 || st.Drained != 1 {
		t.Fatalf("payload not delivered via the buffer: %+v", st)
	}
}

// blockingPeer accepts every payload, except that a Send of the payload
// whose first byte is hold signals entered and waits for release.
type blockingPeer struct {
	hold             byte
	entered, release chan struct{}
	flakySender
}

func newBlockingPeer(hold byte) *blockingPeer {
	return &blockingPeer{hold: hold, entered: make(chan struct{}), release: make(chan struct{})}
}

func (b *blockingPeer) Send(p []byte) error {
	if p[0] == b.hold {
		close(b.entered)
		<-b.release
	}
	return b.flakySender.Send(p)
}

// TestSendNeverWaitsOnDrainProbe: the drain loop holds no lock that
// Send needs while its request is in flight. A peer hangs on the one
// buffered payload; a Send of a second payload must queue behind it and
// return at once, and both land in order once the peer answers.
func TestSendNeverWaitsOnDrainProbe(t *testing.T) {
	peer := newBlockingPeer(1)
	u := NewUplink(peer, testConfig())
	defer u.Close(context.Background())
	defer func() {
		select {
		case <-peer.release:
		default:
			close(peer.release)
		}
	}()

	u.buffer([]byte{1})
	select {
	case <-peer.entered:
	case <-time.After(5 * time.Second):
		t.Fatal("the drain loop never probed the buffered payload")
	}
	sent := make(chan error, 1)
	go func() { sent <- u.Send([]byte{2}) }()
	select {
	case err := <-sent:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(100 * time.Millisecond):
		t.Fatal("Send waited on the drain loop's request to a hung peer")
	}

	close(peer.release)
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := u.Flush(ctx); err != nil {
		t.Fatal(err)
	}
	if got := peer.received(); len(got) != 2 || got[0][0] != 1 || got[1][0] != 2 {
		t.Fatalf("delivered %v, want [[1] [2]]", got)
	}
}

// TestDrainEvictedInFlightCountsAsDropped: drop-oldest can evict the
// payload the drain loop has in flight. Its Pop must then remove
// nothing — not the newer payload that is now the head — and the
// evicted one counts as dropped, not drained.
func TestDrainEvictedInFlightCountsAsDropped(t *testing.T) {
	peer := newBlockingPeer(1)
	cfg := testConfig()
	cfg.QueueDepth = 1
	u := NewUplink(peer, cfg)
	defer u.Close(context.Background())

	u.buffer([]byte{1})
	<-peer.entered
	if err := u.Send([]byte{2}); err != nil { // evicts [1] from the full queue
		t.Fatal(err)
	}
	close(peer.release)
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := u.Flush(ctx); err != nil {
		t.Fatal(err)
	}
	if got := peer.received(); len(got) != 2 || got[1][0] != 2 {
		t.Fatalf("delivered %v, want [2] sent after the evicted [1]", got)
	}
	if st := u.Stats(); st.Drained != 1 || st.Queue.DroppedOldest != 1 || st.Queue.Dequeued != 1 {
		t.Fatalf("stats = %+v, want 1 drained and 1 dropped", st)
	}
}

// TestUplinkAllocBudgets pins the gateway datapath's allocation budgets
// against a peer that accepts everything: an unbatched Send costs 0
// allocations per payload, and with batching on a full
// frame costs 1 — the builder's buffer, handed downstream — whether it
// holds 16 packets or 256.
func TestUplinkAllocBudgets(t *testing.T) {
	accept := SenderFunc(func([]byte) error { return nil })
	// The drain loop sleeps until kicked, and a peer that accepts
	// everything never kicks it: AllocsPerRun counts every goroutine.
	cfg := testConfig()
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
		// Refused with the hint once — Send's attempt, which parks the
		// payload — then accepted by the drain loop's probe.
		inner := SenderFunc(func([]byte) error {
			if calls.Add(1) == 1 {
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
