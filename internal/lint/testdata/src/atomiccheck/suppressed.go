// Suppressed case for atomiccheck: one function-API call, annotated
// with its reason.
package atomiccheck

import "sync/atomic"

// Approx reads a counter another process updates in shared memory.
func (s *stats) Approx() uint64 {
	return atomic.LoadUint64(&s.cold) //vmplint:allow atomiccheck the word lives in a memory-mapped file whose layout is fixed
}
