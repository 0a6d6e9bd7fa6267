package memory

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/rand/v2"
	"testing"
	"testing/quick"

	"vmp/internal/sim"
)

func TestGeometry(t *testing.T) {
	m := New(1<<20, 256)
	if m.Size() != 1<<20 || m.PageSize() != 256 || m.Frames() != 4096 {
		t.Errorf("geometry: size=%d ps=%d frames=%d", m.Size(), m.PageSize(), m.Frames())
	}
}

func TestBadGeometryPanics(t *testing.T) {
	cases := []struct{ size, ps int }{{0, 256}, {1024, 0}, {1000, 256}}
	for _, c := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("New(%d, %d) did not panic", c.size, c.ps)
				}
			}()
			New(c.size, c.ps)
		}()
	}
}

func TestWordRoundTrip(t *testing.T) {
	m := New(64<<10, 256)
	m.WriteWord(0x1234, 0xdeadbeef)
	if got := m.ReadWord(0x1234); got != 0xdeadbeef {
		t.Errorf("ReadWord = %#x", got)
	}
	if got := m.ReadWord(0x1238); got != 0 {
		t.Errorf("adjacent word disturbed: %#x", got)
	}
}

func TestWordRoundTripProperty(t *testing.T) {
	m := New(64<<10, 256)
	f := func(addr uint16, v uint32) bool {
		a := uint32(addr) &^ 3
		m.WriteWord(a, v)
		return m.ReadWord(a) == v
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestBlockRoundTrip(t *testing.T) {
	m := New(64<<10, 256)
	in := []byte{1, 2, 3, 4, 5, 6, 7, 8}
	m.WriteBlock(0x2000, in)
	out := m.ReadBlock(0x2000, 8)
	for i := range in {
		if out[i] != in[i] {
			t.Fatalf("block byte %d = %d", i, out[i])
		}
	}
}

func TestFrameMath(t *testing.T) {
	m := New(64<<10, 256)
	if m.Frame(0x1ff) != 1 || m.Frame(0x200) != 2 {
		t.Error("Frame boundaries wrong")
	}
	if m.FrameAddr(3) != 0x300 {
		t.Errorf("FrameAddr(3) = %#x", m.FrameAddr(3))
	}
}

func TestAllocFree(t *testing.T) {
	m := New(1024, 256) // 4 frames
	var frames []uint32
	for i := 0; i < 4; i++ {
		f, ok := m.AllocFrame()
		if !ok {
			t.Fatalf("alloc %d failed", i)
		}
		if m.Allocated(f) != true {
			t.Error("Allocated false after alloc")
		}
		frames = append(frames, f)
	}
	if _, ok := m.AllocFrame(); ok {
		t.Error("alloc succeeded with no free frames")
	}
	if m.FreeFrames() != 0 {
		t.Errorf("FreeFrames = %d", m.FreeFrames())
	}
	m.FreeFrame(frames[2])
	if m.FreeFrames() != 1 {
		t.Errorf("FreeFrames after free = %d", m.FreeFrames())
	}
	f, ok := m.AllocFrame()
	if !ok || f != frames[2] {
		t.Errorf("realloc gave %d, want %d", f, frames[2])
	}
}

// TestAllocZeroesFrame checks that a frame written, freed and allocated
// again reads zeros, and that clearing it leaves the other frames of its
// VM page alone.
func TestAllocZeroesFrame(t *testing.T) {
	m := New(64<<10, 256)
	f, _ := m.AllocFrame()
	g, _ := m.AllocFrame() // same VM page as f
	for a := m.FrameAddr(f); a < m.FrameAddr(f+1); a += 4 {
		m.WriteWord(a, a|1)
	}
	m.WriteWord(m.FrameAddr(g), 99)
	m.FreeFrame(f)
	f2, _ := m.AllocFrame()
	if f2 != f {
		t.Fatalf("expected frame reuse, got %d vs %d", f2, f)
	}
	if b := m.ReadBlock(m.FrameAddr(f2), m.PageSize()); !bytes.Equal(b, make([]byte, m.PageSize())) {
		t.Error("reallocated frame not zeroed")
	}
	if got := m.ReadWord(m.FrameAddr(g)); got != 99 {
		t.Errorf("neighbouring frame read %d after the realloc, want 99", got)
	}
}

func TestDoubleFreePanics(t *testing.T) {
	m := New(1024, 256)
	f, _ := m.AllocFrame()
	m.FreeFrame(f)
	defer func() {
		if recover() == nil {
			t.Error("double free did not panic")
		}
	}()
	m.FreeFrame(f)
}

func TestAllocDeterministicOrder(t *testing.T) {
	m := New(1024, 256)
	for want := uint32(0); want < 4; want++ {
		f, _ := m.AllocFrame()
		if f != want {
			t.Errorf("alloc order: got %d, want %d", f, want)
		}
	}
}

func TestBlockTime(t *testing.T) {
	tm := DefaultTiming()
	cases := []struct {
		bytes int
		want  sim.Time
	}{
		{4, 300},
		{128, 300 + 31*100},
		{256, 300 + 63*100},
		{512, 300 + 127*100},
		{0, 0},
	}
	for _, c := range cases {
		if got := tm.BlockTime(c.bytes); got != c.want {
			t.Errorf("BlockTime(%d) = %v, want %v", c.bytes, got, c.want)
		}
	}
}

// refMemory is the reference model for the equivalence harness: a flat
// image zeroed up front and the pre-built free list that New kept until
// it allocated main memory on first write. The list holds every frame,
// pushed high to low so that frame 0 is on top; AllocFrame pops it,
// zeroing the frame, and FreeFrame pushes.
type refMemory struct {
	data      []byte
	pageSize  int
	freeList  []uint32
	allocated []bool
}

func newRefMemory(size, pageSize int) *refMemory {
	r := &refMemory{data: make([]byte, size), pageSize: pageSize, allocated: make([]bool, size/pageSize)}
	for f := size/pageSize - 1; f >= 0; f-- {
		r.freeList = append(r.freeList, uint32(f))
	}
	return r
}

func (r *refMemory) alloc() (uint32, bool) {
	if len(r.freeList) == 0 {
		return 0, false
	}
	f := r.freeList[len(r.freeList)-1]
	r.freeList = r.freeList[:len(r.freeList)-1]
	r.allocated[f] = true
	clear(r.data[int(f)*r.pageSize : (int(f)+1)*r.pageSize])
	return f, true
}

func (r *refMemory) free(f uint32) {
	r.allocated[f] = false
	r.freeList = append(r.freeList, f)
}

// equivalence drives a Memory and the reference model with the same
// seeded random sequence of steps and fails at the first step where
// they differ: a returned frame or ok result, FreeFrames, Allocated of
// any frame, or the bytes read back.
type equivalence struct {
	t      *testing.T
	m      *Memory
	ref    *refMemory
	rng    *rand.Rand
	step   int
	held   []uint32   // frames allocated one at a time
	groups [][]uint32 // frames allocated as one VM page, in order
}

func (e *equivalence) fatalf(format string, args ...any) {
	e.t.Helper()
	e.t.Fatalf("step %d: %s", e.step, fmt.Sprintf(format, args...))
}

// alloc allocates one frame from both and checks they agree.
func (e *equivalence) alloc() (uint32, bool) {
	e.t.Helper()
	got, gotOK := e.m.AllocFrame()
	want, wantOK := e.ref.alloc()
	if got != want || gotOK != wantOK {
		e.fatalf("AllocFrame = %d, %v; reference %d, %v", got, gotOK, want, wantOK)
	}
	return got, gotOK
}

func (e *equivalence) free(f uint32) {
	e.m.FreeFrame(f)
	e.ref.free(f)
}

// addr returns a random in-range address with room for n bytes, at any
// alignment.
func (e *equivalence) addr(n int) uint32 {
	return uint32(e.rng.IntN(len(e.ref.data) - n + 1))
}

// do runs one random step.
func (e *equivalence) do() {
	e.t.Helper()
	perPage := max(1, 4096/e.ref.pageSize) // frames per VM page
	switch op := e.rng.IntN(100); {
	case op < 20:
		if f, ok := e.alloc(); ok {
			e.held = append(e.held, f)
		}
	case op < 40:
		if len(e.held) > 0 {
			i := e.rng.IntN(len(e.held))
			e.free(e.held[i])
			e.held[i] = e.held[len(e.held)-1]
			e.held = e.held[:len(e.held)-1]
		}
	case op < 50:
		// A VM page: perPage frames in a row, as vm.allocVMFrame takes
		// them. The harness does not require them to be contiguous.
		var g []uint32
		for range perPage {
			f, ok := e.alloc()
			if !ok {
				break
			}
			g = append(g, f)
		}
		e.groups = append(e.groups, g)
	case op < 60:
		// Free a VM page's frames in reverse, as vm.freeVMFrame does.
		if len(e.groups) > 0 {
			i := e.rng.IntN(len(e.groups))
			g := e.groups[i]
			for j := len(g) - 1; j >= 0; j-- {
				e.free(g[j])
			}
			e.groups[i] = e.groups[len(e.groups)-1]
			e.groups = e.groups[:len(e.groups)-1]
		}
	case op < 62:
		// Run to exhaustion.
		for {
			f, ok := e.alloc()
			if !ok {
				break
			}
			e.held = append(e.held, f)
		}
		if n := e.m.FreeFrames(); n != 0 {
			e.fatalf("FreeFrames = %d after exhaustion", n)
		}
	case op < 77:
		a, v := e.addr(4), e.rng.Uint32()
		e.m.WriteWord(a, v)
		binary.LittleEndian.PutUint32(e.ref.data[a:], v)
	case op < 85:
		b := make([]byte, e.rng.IntN(min(len(e.ref.data), 2*chunkSize+1)))
		for i := range b {
			b[i] = byte(e.rng.UintN(256))
		}
		a := e.addr(len(b))
		e.m.WriteBlock(a, b)
		copy(e.ref.data[a:], b)
	case op < 95:
		a := e.addr(4)
		if got, want := e.m.ReadWord(a), binary.LittleEndian.Uint32(e.ref.data[a:]); got != want {
			e.fatalf("ReadWord(%#x) = %#x; reference %#x", a, got, want)
		}
	default:
		n := e.rng.IntN(min(len(e.ref.data), 2*chunkSize+1))
		a := e.addr(n)
		if got, want := e.m.ReadBlock(a, n), e.ref.data[a:int(a)+n]; !bytes.Equal(got, want) {
			e.fatalf("ReadBlock(%#x, %d) differs from the reference", a, n)
		}
	}
}

// check compares the allocator state, and every 64 steps the whole
// image.
func (e *equivalence) check() {
	e.t.Helper()
	if got, want := e.m.FreeFrames(), len(e.ref.freeList); got != want {
		e.fatalf("FreeFrames = %d; reference %d", got, want)
	}
	for f := range uint32(len(e.ref.allocated)) {
		if got, want := e.m.Allocated(f), e.ref.allocated[f]; got != want {
			e.fatalf("Allocated(%d) = %v; reference %v", f, got, want)
		}
	}
	if e.m.Allocated(uint32(len(e.ref.allocated))) {
		e.fatalf("Allocated past the last frame")
	}
	if e.step%64 == 0 && !bytes.Equal(e.m.ReadBlock(0, len(e.ref.data)), e.ref.data) {
		e.fatalf("image differs from the reference")
	}
}

// TestMatchesReference is the equivalence harness: on every geometry
// and seed, Memory hands out the same frames in the same order as the
// pre-built LIFO free list, reports the same counts, and holds the same
// bytes as a flat zeroed image.
func TestMatchesReference(t *testing.T) {
	geometries := []struct{ size, pageSize int }{
		{64 << 10, 256}, // 16 frames per VM page
		{16 << 10, 128},
		{32 << 10, 512},
		{16 << 10, 4096}, // one frame per VM page
		{32 << 10, 8192}, // a frame spanning two VM pages
		{3 << 10, 256},   // less than one VM page
		{10 << 10, 1024}, // ends inside a VM page
	}
	for _, g := range geometries {
		for seed := uint64(1); seed <= 6; seed++ {
			t.Run(fmt.Sprintf("%d/%d/seed=%d", g.size, g.pageSize, seed), func(t *testing.T) {
				e := &equivalence{
					t:   t,
					m:   New(g.size, g.pageSize),
					ref: newRefMemory(g.size, g.pageSize),
					rng: rand.New(rand.NewPCG(seed, 24)),
				}
				for e.step = 0; e.step < 3000; e.step++ {
					e.do()
					e.check()
				}
				e.step = 0
				e.check()
			})
		}
	}
}

// TestUnwrittenReadIsFree checks that reading memory nothing has
// written returns zero and allocates nothing.
func TestUnwrittenReadIsFree(t *testing.T) {
	m := New(1<<20, 256)
	m.WriteWord(0x100, 7)
	var got uint32
	allocs := testing.AllocsPerRun(100, func() { got |= m.ReadWord(0x8_0000) })
	if got != 0 || allocs != 0 {
		t.Errorf("unwritten ReadWord = %#x at %v allocations, want 0 at 0", got, allocs)
	}
}

// TestStraddleRoundTrip checks words and a block that cross a VM-page
// boundary.
func TestStraddleRoundTrip(t *testing.T) {
	const boundary = 2 * chunkSize
	m := New(64<<10, 256)
	for a := uint32(boundary - 3); a < boundary; a++ {
		m.WriteWord(a, 0x11223344^a)
		if got := m.ReadWord(a); got != 0x11223344^a {
			t.Errorf("ReadWord(%#x) = %#x, want %#x", a, got, 0x11223344^a)
		}
	}
	m.WriteWord(boundary-2, 0xa1b2c3d4)
	if lo, hi := m.ReadBlock(boundary-2, 2), m.ReadBlock(boundary, 2); !bytes.Equal(lo, []byte{0xd4, 0xc3}) || !bytes.Equal(hi, []byte{0xb2, 0xa1}) {
		t.Errorf("straddling word split as %x | %x", lo, hi)
	}

	in := make([]byte, chunkSize+100) // crosses two boundaries
	for i := range in {
		in[i] = byte(i*7 + 1)
	}
	m.WriteBlock(boundary-50, in)
	if out := m.ReadBlock(boundary-50, len(in)); !bytes.Equal(out, in) {
		t.Error("block across VM-page boundaries did not round-trip")
	}
	if m.ReadWord(boundary-56) != 0 || m.ReadWord(boundary+chunkSize+52) != 0 {
		t.Error("block write disturbed its neighbours")
	}
}

// TestOutOfRangePanics checks that every access past the end panics,
// including one that ends inside the last VM page's storage.
func TestOutOfRangePanics(t *testing.T) {
	for _, size := range []int{64 << 10, 3 << 10} {
		m := New(size, 256)
		end := uint32(size)
		cases := []struct {
			name string
			f    func()
		}{
			{"ReadWord at the end", func() { m.ReadWord(end) }},
			{"ReadWord across the end", func() { m.ReadWord(end - 2) }},
			{"ReadWord wrapping", func() { m.ReadWord(^uint32(0) - 1) }},
			{"WriteWord at the end", func() { m.WriteWord(end, 1) }},
			{"WriteWord across the end", func() { m.WriteWord(end-1, 1) }},
			{"WriteWord far out", func() { m.WriteWord(1<<31, 1) }},
			{"ReadBlock across the end", func() { m.ReadBlock(end-4, 8) }},
			{"WriteBlock across the end", func() { m.WriteBlock(end-4, make([]byte, 8)) }},
		}
		for _, c := range cases {
			func() {
				defer func() {
					if recover() == nil {
						t.Errorf("size %d: %s did not panic", size, c.name)
					}
				}()
				c.f()
			}()
		}
	}
}

// TestFirstWriteAllocates checks that a write allocates its chunk once:
// the first write into each chunk costs one allocation, and later
// writes into a written chunk cost none.
func TestFirstWriteAllocates(t *testing.T) {
	m := New(64<<10, 256)
	if m.Size() != 16*chunkSize {
		t.Fatalf("memory is %d chunks, want 16", m.Size()/chunkSize)
	}
	next := uint32(0)
	first := testing.AllocsPerRun(8, func() { // 9 calls: 9 fresh chunks
		m.WriteWord(next*chunkSize+8, next+1)
		next++
	})
	again := testing.AllocsPerRun(8, func() { m.WriteWord(3*chunkSize+12, 5) })
	if first != 1 || again != 0 {
		t.Errorf("allocations per write: %v to a fresh chunk, %v to a written one; want 1 and 0", first, again)
	}
	for i := uint32(0); i < next; i++ {
		if got := m.ReadWord(i*chunkSize + 8); got != i+1 {
			t.Errorf("chunk %d read %d, want %d", i, got, i+1)
		}
	}
}
