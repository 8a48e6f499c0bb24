// Package atomiccheck is an extravet fixture: every call to a
// function-style sync/atomic op is a finding; the typed wrappers are
// the clean shape.
package atomiccheck

import "sync/atomic"

type counters struct {
	hits int64
	ptr  atomic.Pointer[int]
	v    atomic.Uint64
}

func bad(c *counters) int64 {
	atomic.AddInt64(&c.hits, 1)      // want `atomic.AddInt64 is a function-style sync/atomic op; use the typed wrapper`
	return atomic.LoadInt64(&c.hits) // want `atomic.LoadInt64 is a function-style`
}

func badCAS(c *counters) bool {
	return atomic.CompareAndSwapInt64(&c.hits, 0, 1) // want `atomic.CompareAndSwapInt64 is a function-style`
}

// good uses the typed wrappers, whose method calls are not findings.
func good(c *counters) uint64 {
	c.v.Add(1)
	c.ptr.Store(new(int))
	return c.v.Load()
}
