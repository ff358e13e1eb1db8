package resilience

import "centuryscale/internal/obs"

// RegisterMetrics exposes the uplink's counters on reg under the given
// prefix (e.g. "gateway_uplink"), so a daemon running two uplinks can
// register both. All values are bridged as scrape-time closures over the
// counters the uplink and its queue already keep: Send's hot path gains
// nothing.
//
// consecutive_failures is the drain loop's backoff position: 0 while the
// peer answers, n after n transient failures in a row.
func (u *Uplink) RegisterMetrics(reg *obs.Registry, prefix string) {
	name := func(suffix string) string { return prefix + "_" + suffix }
	reg.CounterFunc(name("sent_total"), "payloads delivered by Send's one attempt", u.sent.Load)
	reg.CounterFunc(name("drained_total"), "payloads delivered from the buffer by the drain loop", u.drained.Load)
	reg.CounterFunc(name("rejected_total"), "payloads the peer permanently refused", u.rejects.Load)
	reg.CounterFunc(name("buffered_total"), "payloads that entered the store-and-forward queue", func() uint64 {
		return u.queue.Stats().Enqueued
	})
	reg.CounterFunc(name("queue_dropped_oldest_total"), "buffered payloads evicted by overflow", func() uint64 {
		return u.queue.Stats().DroppedOldest
	})
	reg.CounterFunc(name("batched_packets_total"), "packets copied into the pending batch frame", u.batched.Load)
	reg.CounterFunc(name("frames_built_total"), "batch frames sealed and dispatched downstream", u.frames.Load)
	reg.GaugeFunc(name("queue_depth"), "payloads currently buffered", func() float64 {
		return float64(u.queue.Len())
	})
	reg.GaugeFunc(name("consecutive_failures"), "transient failures since the peer last answered", func() float64 {
		return float64(u.failures.Load())
	})
}
