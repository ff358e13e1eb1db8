// Fixture for the atomicmix analyzer: every call of sync/atomic's
// function API is reported; the wrapper types' methods never are.
package atomicmix

import "sync/atomic"

type counters struct {
	hits   uint64
	misses uint64
}

// bump uses the function API: each call is reported.
func (c *counters) bump() {
	atomic.AddUint64(&c.hits, 1)   // want `atomic\.AddUint64 is sync/atomic's function API`
	atomic.AddUint64(&c.misses, 1) // want `atomic\.AddUint64 is sync/atomic's function API`
}

// snapshot mixes in a plain load — the race the ban exists for. The
// plain read is legal Go; the atomic calls beside it are what the
// analyzer reports, because they are what lets the field stay plain.
func (c *counters) snapshot() (uint64, uint64) {
	h := c.hits
	m := atomic.LoadUint64(&c.misses) // want `atomic\.LoadUint64 is sync/atomic's function API`
	return h, m
}

func (c *counters) reset() {
	atomic.StoreUint64(&c.hits, 0)                   // want `atomic\.StoreUint64`
	_ = atomic.CompareAndSwapUint64(&c.misses, 1, 0) // want `atomic\.CompareAndSwapUint64`
}

// modern uses the wrapper types: no plain access is possible, and their
// methods are never flagged.
type modern struct {
	hits  atomic.Uint64
	limit atomic.Int64
	cur   atomic.Pointer[counters]
}

func (m *modern) bump() uint64 {
	m.hits.Add(1)
	m.limit.Store(4)
	m.cur.Store(&counters{})
	_ = m.limit.CompareAndSwap(4, 5)
	return m.hits.Load()
}

// slab is a page of plain words shared with another process: a wrapper
// type cannot overlay it, so its one atomic call states why.
func bumpShared(slab []uint64, i int) uint64 {
	//lint:atomicmix slab is a memory-mapped page of plain uint64s shared with another process; wrapper types cannot overlay it
	return atomic.AddUint64(&slab[i], 1)
}
