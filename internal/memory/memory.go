// Package memory models VMP's shared main memory: a sequence of cache
// page frames backed by static-column RAM optimized for block transfer
// (300 ns for the first longword of a sequential access, 100 ns for each
// subsequent one).
//
// The memory carries real byte data. Because the consistency protocol
// guarantees that a privately held page has exactly one copy and that
// write-back is the only bus transaction that modifies main memory, the
// simulator can keep a single backing store and let processors read and
// write it directly while the protocol (checked elsewhere) keeps those
// accesses race-free in simulated time.
//
// The bytes exist from their first write. The store is a row of 4 KiB
// chunks, one VM page each, and a chunk is allocated when something
// first writes into it; memory that nothing has written reads as zero.
// A trace workload writes only its page tables, so a machine costs the
// host the pages its run writes, not the whole image.
package memory

import (
	"encoding/binary"
	"fmt"

	"vmp/internal/sim"
)

// Timing holds the memory-board timing constants from the paper.
type Timing struct {
	FirstWord sim.Time // first longword of a sequential access
	NextWord  sim.Time // each subsequent longword
}

// DefaultTiming matches the prototype's static-column RAM boards.
func DefaultTiming() Timing {
	return Timing{FirstWord: 300 * sim.Nanosecond, NextWord: 100 * sim.Nanosecond}
}

// BlockTime returns the time to stream n bytes sequentially.
func (t Timing) BlockTime(n int) sim.Time {
	words := n / 4
	if words <= 0 {
		return 0
	}
	return t.FirstWord + sim.Time(words-1)*t.NextWord
}

// A chunk is one VM page of backing store, so a page-table page is one
// chunk.
const (
	chunkShift = 12
	chunkSize  = 1 << chunkShift
	chunkMask  = chunkSize - 1
)

type chunk = [chunkSize]byte

// Memory is the shared main memory.
type Memory struct {
	chunks    []*chunk // nil until first written
	size      int
	pageSize  int
	timing    Timing
	next      uint32   // lowest frame never handed out
	freed     []uint32 // frames freed since, LIFO
	allocated []bool
}

// New creates a memory of size bytes divided into frames of pageSize
// bytes; pageSize must divide size. It allocates no backing store: the
// bytes exist from their first write.
func New(size, pageSize int) *Memory {
	if size <= 0 || pageSize <= 0 || size%pageSize != 0 {
		panic(fmt.Sprintf("memory: bad geometry size=%d pageSize=%d", size, pageSize))
	}
	return &Memory{
		chunks:    make([]*chunk, (size+chunkMask)>>chunkShift),
		size:      size,
		pageSize:  pageSize,
		timing:    DefaultTiming(),
		allocated: make([]bool, size/pageSize),
	}
}

// Size returns the memory size in bytes.
func (m *Memory) Size() int { return m.size }

// PageSize returns the frame size in bytes.
func (m *Memory) PageSize() int { return m.pageSize }

// Frames returns the number of cache page frames.
func (m *Memory) Frames() int { return len(m.allocated) }

// Timing returns the board timing constants.
func (m *Memory) Timing() Timing { return m.timing }

// Frame returns the frame number containing physical address paddr.
func (m *Memory) Frame(paddr uint32) uint32 { return paddr / uint32(m.pageSize) }

// FrameAddr returns the first physical address of a frame.
func (m *Memory) FrameAddr(frame uint32) uint32 { return frame * uint32(m.pageSize) }

// inRange panics unless the n bytes at paddr lie inside the memory.
func (m *Memory) inRange(paddr uint32, n int) {
	if uint64(paddr)+uint64(n) > uint64(m.size) {
		panic(fmt.Sprintf("memory: %d bytes at %#x outside %d bytes of memory", n, paddr, m.size))
	}
}

// ReadWord returns the 32-bit word at paddr (must be in range; 4-byte
// aligned addresses are the norm, but any in-range address works).
func (m *Memory) ReadWord(paddr uint32) uint32 {
	if off := paddr & chunkMask; off <= chunkSize-4 && int(paddr) <= m.size-4 {
		if c := m.chunks[paddr>>chunkShift]; c != nil {
			return binary.LittleEndian.Uint32(c[off:])
		}
		return 0
	}
	var b [4]byte // a word across two chunks, or out of range
	m.read(paddr, b[:])
	return binary.LittleEndian.Uint32(b[:])
}

// WriteWord stores a 32-bit word at paddr.
func (m *Memory) WriteWord(paddr uint32, v uint32) {
	if off := paddr & chunkMask; off <= chunkSize-4 && int(paddr) <= m.size-4 {
		c := m.chunks[paddr>>chunkShift]
		if c == nil {
			c = m.alloc(paddr)
		}
		binary.LittleEndian.PutUint32(c[off:], v)
		return
	}
	var b [4]byte
	binary.LittleEndian.PutUint32(b[:], v)
	m.WriteBlock(paddr, b[:])
}

// alloc allocates the chunk holding paddr.
func (m *Memory) alloc(paddr uint32) *chunk {
	c := new(chunk)
	m.chunks[paddr>>chunkShift] = c
	return c
}

// span returns the part of the n bytes at paddr that lies in paddr's
// chunk: that chunk (nil if nothing has written it) and the offset and
// length of the part within it.
func (m *Memory) span(paddr uint32, n int) (c *chunk, off, k int) {
	off = int(paddr & chunkMask)
	return m.chunks[paddr>>chunkShift], off, min(n, chunkSize-off)
}

// read copies len(dst) bytes starting at paddr into dst.
func (m *Memory) read(paddr uint32, dst []byte) {
	m.inRange(paddr, len(dst))
	for done := 0; done < len(dst); {
		c, off, k := m.span(paddr+uint32(done), len(dst)-done)
		if c != nil {
			copy(dst[done:], c[off:off+k])
		}
		done += k
	}
}

// ReadBlock copies out n bytes starting at paddr.
func (m *Memory) ReadBlock(paddr uint32, n int) []byte {
	out := make([]byte, n)
	m.read(paddr, out)
	return out
}

// WriteBlock stores b starting at paddr.
func (m *Memory) WriteBlock(paddr uint32, b []byte) {
	m.inRange(paddr, len(b))
	for done := 0; done < len(b); {
		c, off, k := m.span(paddr+uint32(done), len(b)-done)
		if c == nil {
			c = m.alloc(paddr + uint32(done))
		}
		done += copy(c[off:off+k], b[done:])
	}
}

// AllocFrame takes a free frame, zeroing its contents: the frame freed
// last, or else the lowest frame never handed out, which is the order a
// LIFO list of every frame, pushed high to low, would give. The second
// result is false when memory is exhausted (the page-out daemon's cue).
func (m *Memory) AllocFrame() (uint32, bool) {
	var f uint32
	switch n := len(m.freed); {
	case n > 0:
		f = m.freed[n-1]
		m.freed = m.freed[:n-1]
	case int(m.next) < len(m.allocated):
		f = m.next
		m.next++
	default:
		return 0, false
	}
	m.allocated[f] = true
	start := m.FrameAddr(f)
	for done := 0; done < m.pageSize; {
		c, off, k := m.span(start+uint32(done), m.pageSize-done)
		if c != nil {
			clear(c[off : off+k])
		}
		done += k
	}
	return f, true
}

// FreeFrame returns a frame to the allocator. Double frees panic: they
// are simulator bugs.
func (m *Memory) FreeFrame(f uint32) {
	if int(f) >= len(m.allocated) || !m.allocated[f] {
		panic(fmt.Sprintf("memory: free of unallocated frame %d", f))
	}
	m.allocated[f] = false
	m.freed = append(m.freed, f)
}

// FreeFrames reports how many frames remain unallocated.
func (m *Memory) FreeFrames() int {
	return len(m.allocated) - int(m.next) + len(m.freed)
}

// Allocated reports whether frame f is currently allocated.
func (m *Memory) Allocated(f uint32) bool {
	return int(f) < len(m.allocated) && m.allocated[f]
}
