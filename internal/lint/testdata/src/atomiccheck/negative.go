// Negative cases for atomiccheck: typed atomics, whose methods are the
// only way to reach the value, and plain fields that are never atomic.
package atomiccheck

import "sync/atomic"

type gauge struct {
	level atomic.Int64
	peak  atomic.Int64
	value int64
}

func (g *gauge) Set(v int64)  { g.level.Store(v) }
func (g *gauge) Get() int64   { return g.level.Load() }
func (g *gauge) Plain() int64 { return g.value }

// Raise is a CAS loop on a typed atomic.
func (g *gauge) Raise(v int64) {
	for {
		cur := g.peak.Load()
		if v <= cur || g.peak.CompareAndSwap(cur, v) {
			return
		}
	}
}

var flag atomic.Pointer[gauge]

func publish(g *gauge) *gauge { return flag.Swap(g) }
