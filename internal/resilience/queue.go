package resilience

import "sync"

// QueueStats counts store-and-forward activity.
type QueueStats struct {
	Enqueued      uint64
	Dequeued      uint64
	DroppedOldest uint64 // overflow evictions
	HighWater     int    // deepest the queue has been
}

// Queue is a bounded FIFO of payloads with drop-oldest backpressure: when
// full, Push evicts the oldest buffered payload to admit the newest. For
// cadence telemetry that is the right loss order — the most recent
// reading is the one that keeps the endpoint's weekly-uptime metric
// alive, and devices will transmit again next interval regardless.
//
// Implemented as a fixed ring buffer; safe for concurrent use.
type Queue struct {
	mu    sync.Mutex
	buf   [][]byte
	head  int // index of oldest element
	n     int // elements in buffer
	stats QueueStats
}

// NewQueue returns a queue holding at most depth payloads. Non-positive
// depth falls back to 1024.
func NewQueue(depth int) *Queue {
	if depth <= 0 {
		depth = 1024
	}
	return &Queue{buf: make([][]byte, depth)}
}

// Cap returns the configured depth.
func (q *Queue) Cap() int { return len(q.buf) }

// Len returns the number of buffered payloads.
func (q *Queue) Len() int {
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.n
}

// Push appends p, evicting the oldest payload if the queue is full.
// It reports whether an eviction happened.
func (q *Queue) Push(p []byte) (evicted bool) {
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.n == len(q.buf) {
		q.buf[q.head] = nil
		q.head = (q.head + 1) % len(q.buf)
		q.n--
		q.stats.DroppedOldest++
		evicted = true
	}
	q.buf[(q.head+q.n)%len(q.buf)] = p
	q.n++
	q.stats.Enqueued++
	if q.n > q.stats.HighWater {
		q.stats.HighWater = q.n
	}
	return evicted
}

// Peek returns the oldest payload without removing it, and its
// position: the number of payloads that left the queue before it,
// popped or evicted. The position names the payload for Pop.
func (q *Queue) Peek() (p []byte, pos uint64, ok bool) {
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.n == 0 {
		return nil, 0, false
	}
	return q.buf[q.head], q.stats.Dequeued + q.stats.DroppedOldest, true
}

// Pop removes the oldest payload if it is still the one Peek returned
// at pos. It reports false, removing nothing, when that payload has
// been evicted (or popped) since: a caller that peeked, sent and then
// popped must not take a newer payload out unsent.
func (q *Queue) Pop(pos uint64) bool {
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.n == 0 || q.stats.Dequeued+q.stats.DroppedOldest != pos {
		return false
	}
	q.buf[q.head] = nil
	q.head = (q.head + 1) % len(q.buf)
	q.n--
	q.stats.Dequeued++
	return true
}

// Stats returns a snapshot of the counters.
func (q *Queue) Stats() QueueStats {
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.stats
}
