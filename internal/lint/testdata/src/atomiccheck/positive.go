// Fixture for the atomiccheck analyzer: package-level sync/atomic
// functions, each operating on a plain word.
package atomiccheck

import "sync/atomic"

type stats struct {
	hits uint64
	cold uint64
}

// Inc and Read reach the field through the function API; nothing stops
// other code from reading s.hits plainly.
func (s *stats) Inc()         { atomic.AddUint64(&s.hits, 1) }      // want "sync/atomic.AddUint64 operates on a plain word"
func (s *stats) Read() uint64 { return atomic.LoadUint64(&s.hits) } // want "sync/atomic.LoadUint64 operates on a plain word"

// bump is a CAS-style helper that forwards its pointer parameter.
func bump(p *uint64) { atomic.AddUint64(p, 1) } // want "sync/atomic.AddUint64 operates on a plain word"

func (s *stats) IncCold() { bump(&s.cold) }

// store takes the function as a value instead of calling it.
var store = atomic.StoreUint64 // want "sync/atomic.StoreUint64 operates on a plain word"
