package cache

import (
	"testing"
	"testing/quick"

	"vmp/internal/trace"
	"vmp/internal/workload"
)

func cfg256() Config { return Geometry(128<<10, 256, 4) } // 128 rows × 4 × 256B

func TestConfigValidate(t *testing.T) {
	good := []Config{
		{PageSize: 128, Rows: 16, Assoc: 1},
		{PageSize: 256, Rows: 128, Assoc: 4},
		{PageSize: 512, Rows: 256, Assoc: 4},
	}
	for _, c := range good {
		if err := c.Validate(); err != nil {
			t.Errorf("%+v: %v", c, err)
		}
	}
	bad := []Config{
		{PageSize: 100, Rows: 16, Assoc: 1},
		{PageSize: 128, Rows: 0, Assoc: 1},
		{PageSize: 128, Rows: 24, Assoc: 1},
		{PageSize: 128, Rows: 16, Assoc: 0},
		{PageSize: 0, Rows: 16, Assoc: 2},
	}
	for _, c := range bad {
		if err := c.Validate(); err == nil {
			t.Errorf("%+v validated", c)
		}
	}
}

func TestGeometry(t *testing.T) {
	c := Geometry(256<<10, 256, 4)
	if c.Rows != 256 || c.Size() != 256<<10 || c.Slots() != 1024 {
		t.Errorf("Geometry gave %+v size=%d", c, c.Size())
	}
}

func TestMissThenHit(t *testing.T) {
	c := New(cfg256())
	id, res := c.Lookup(1, 0x1000, Access{})
	if res != Miss || id != -1 {
		t.Fatalf("cold lookup = %v, %v", id, res)
	}
	v := c.SuggestVictim(0x1000)
	c.Fill(v, 1, 0x1000, UserRead)
	id, res = c.Lookup(1, 0x1000, Access{})
	if res != Hit || id != v {
		t.Fatalf("after fill: %v, %v", id, res)
	}
	// Same page, different offset, still hits.
	if _, res = c.Lookup(1, 0x10ff, Access{}); res != Hit {
		t.Errorf("same-page offset missed: %v", res)
	}
	// Next page misses.
	if _, res = c.Lookup(1, 0x1100, Access{}); res != Miss {
		t.Errorf("next page: %v", res)
	}
}

func TestASIDMismatchMisses(t *testing.T) {
	c := New(cfg256())
	v := c.SuggestVictim(0x1000)
	c.Fill(v, 1, 0x1000, UserRead)
	if _, res := c.Lookup(2, 0x1000, Access{}); res != Miss {
		t.Errorf("different ASID hit: %v", res)
	}
}

func TestWriteMissOnSharedPage(t *testing.T) {
	c := New(cfg256())
	v := c.SuggestVictim(0x2000)
	c.Fill(v, 1, 0x2000, UserRead|UserWrite) // shared: no Exclusive
	id, res := c.Lookup(1, 0x2000, Access{Write: true})
	if res != WriteMiss || id != v {
		t.Fatalf("write to shared = %v, %v", id, res)
	}
	// Grant ownership; the write then hits and sets Modified.
	c.SetFlags(id, c.SlotState(id).Flags|Exclusive)
	if _, res = c.Lookup(1, 0x2000, Access{Write: true}); res != Hit {
		t.Fatalf("write after ownership = %v", res)
	}
	if !c.SlotState(id).Flags.Has(Modified) {
		t.Error("Modified not set by write hit")
	}
}

func TestProtection(t *testing.T) {
	c := New(cfg256())
	v := c.SuggestVictim(0x3000)
	// Supervisor-only page.
	c.Fill(v, 1, 0x3000, SupWrite|Exclusive)
	if _, res := c.Lookup(1, 0x3000, Access{}); res != ProtFault {
		t.Errorf("user read of supervisor page: %v", res)
	}
	if _, res := c.Lookup(1, 0x3000, Access{Super: true}); res != Hit {
		t.Errorf("supervisor read: %v", res)
	}
	if _, res := c.Lookup(1, 0x3000, Access{Super: true, Write: true}); res != Hit {
		t.Errorf("supervisor write with SupWrite: %v", res)
	}

	// Read-only user page: user write faults, supervisor write faults
	// without SupWrite.
	v2 := c.SuggestVictim(0x4000)
	c.Fill(v2, 1, 0x4000, UserRead|Exclusive)
	if _, res := c.Lookup(1, 0x4000, Access{Write: true}); res != ProtFault {
		t.Errorf("user write of read-only page: %v", res)
	}
	if _, res := c.Lookup(1, 0x4000, Access{Super: true, Write: true}); res != ProtFault {
		t.Errorf("supervisor write without SupWrite: %v", res)
	}
}

func TestLRUVictim(t *testing.T) {
	cfg := Config{PageSize: 256, Rows: 1, Assoc: 4}
	c := New(cfg)
	// Fill all four ways of the single row.
	addrs := []uint32{0x0000, 0x0100, 0x0200, 0x0300}
	for _, a := range addrs {
		c.Fill(c.SuggestVictim(a), 1, a, UserRead)
	}
	// Touch all but addrs[2].
	c.Lookup(1, addrs[0], Access{})
	c.Lookup(1, addrs[1], Access{})
	c.Lookup(1, addrs[3], Access{})
	v := c.SuggestVictim(0x0400)
	if got := c.SlotState(v).VPage; got != 2 {
		t.Errorf("LRU victim holds page %d, want 2", got)
	}
}

func TestVictimPrefersInvalid(t *testing.T) {
	cfg := Config{PageSize: 256, Rows: 1, Assoc: 4}
	c := New(cfg)
	c.Fill(0, 1, 0, UserRead)
	c.Fill(1, 1, 0x100, UserRead)
	v := c.SuggestVictim(0x400)
	if v != 2 && v != 3 {
		t.Errorf("victim %d, want an invalid way", v)
	}
}

func TestInvalidate(t *testing.T) {
	c := New(cfg256())
	v := c.SuggestVictim(0x5000)
	c.Fill(v, 1, 0x5000, UserRead)
	c.Invalidate(v)
	if _, res := c.Lookup(1, 0x5000, Access{}); res != Miss {
		t.Errorf("after invalidate: %v", res)
	}
	if _, ok := c.FindVirtual(1, 0x5000); ok {
		t.Error("FindVirtual found invalidated slot")
	}
}

func TestDowngrade(t *testing.T) {
	c := New(cfg256())
	v := c.SuggestVictim(0x6000)
	c.Fill(v, 1, 0x6000, UserRead|UserWrite|Exclusive|Modified)
	c.Downgrade(v)
	f := c.SlotState(v).Flags
	if f.Has(Exclusive) || f.Has(Modified) {
		t.Errorf("flags after downgrade: %v", f)
	}
	if !f.Has(Valid) || !f.Has(UserRead) {
		t.Errorf("downgrade lost validity/permissions: %v", f)
	}
	// A write now requires re-negotiating ownership.
	if _, res := c.Lookup(1, 0x6000, Access{Write: true}); res != WriteMiss {
		t.Errorf("write after downgrade: %v", res)
	}
}

func TestFindVirtual(t *testing.T) {
	c := New(cfg256())
	v := c.SuggestVictim(0x7000)
	c.Fill(v, 3, 0x7000, UserRead)
	if id, ok := c.FindVirtual(3, 0x70ab); !ok || id != v {
		t.Errorf("FindVirtual = %v, %v", id, ok)
	}
	if _, ok := c.FindVirtual(4, 0x7000); ok {
		t.Error("FindVirtual matched wrong ASID")
	}
}

func TestRowConflict(t *testing.T) {
	// 4-way: five pages mapping to the same row evict one another.
	cfg := Config{PageSize: 256, Rows: 16, Assoc: 4}
	c := New(cfg)
	rowStride := uint32(cfg.PageSize * cfg.Rows)
	for i := 0; i < 5; i++ {
		a := uint32(i) * rowStride // all map to row 0
		if _, res := c.Lookup(1, a, Access{}); res != Miss {
			t.Fatalf("fill %d: %v", i, res)
		}
		c.Fill(c.SuggestVictim(a), 1, a, UserRead)
	}
	hits := 0
	for i := 0; i < 5; i++ {
		if _, res := c.Lookup(1, uint32(i)*rowStride, Access{}); res == Hit {
			hits++
		}
	}
	if hits != 4 {
		t.Errorf("%d of 5 conflicting pages resident, want 4", hits)
	}
}

func TestFillWrongRowPanics(t *testing.T) {
	c := New(cfg256())
	defer func() {
		if recover() == nil {
			t.Error("Fill outside row did not panic")
		}
	}()
	// vaddr 0 maps to row 0 (slots 0-3); slot 100 is another row.
	c.Fill(100, 1, 0, UserRead)
}

func TestValidSlotsAndInvalidateAll(t *testing.T) {
	c := New(cfg256())
	c.Fill(c.SuggestVictim(0x1000), 1, 0x1000, UserRead)
	c.Fill(c.SuggestVictim(0x2000), 1, 0x2000, UserRead)
	n := 0
	c.ValidSlots(func(SlotID, Slot) { n++ })
	if n != 2 {
		t.Errorf("ValidSlots visited %d, want 2", n)
	}
	c.InvalidateAll()
	n = 0
	c.ValidSlots(func(SlotID, Slot) { n++ })
	if n != 0 {
		t.Errorf("slots after InvalidateAll: %d", n)
	}
}

func TestStatsAccounting(t *testing.T) {
	c := New(cfg256())
	c.Lookup(1, 0, Access{})                             // miss
	c.Fill(c.SuggestVictim(0), 1, 0, UserRead|UserWrite) // fill
	c.Lookup(1, 0, Access{})                             // hit
	c.Lookup(1, 0, Access{Write: true})                  // write miss (no ownership)
	st := c.Stats()
	if st.Misses != 1 || st.Hits != 1 || st.WriteMisses != 1 || st.Fills != 1 {
		t.Errorf("stats %+v", st)
	}
	if got := st.MissRatio(); got != 2.0/3.0 {
		t.Errorf("MissRatio = %v", got)
	}
}

func TestFlagsString(t *testing.T) {
	f := Valid | Modified | UserRead
	if got := f.String(); got != "VM..r." {
		t.Errorf("Flags.String() = %q", got)
	}
}

// Property: a filled page always hits immediately afterwards with a
// permitted access, for any geometry and address.
func TestFillThenHitProperty(t *testing.T) {
	f := func(addr uint32, asid uint8, sizeSel, pageSel uint8) bool {
		sizes := []int{64 << 10, 128 << 10, 256 << 10}
		pages := []int{128, 256, 512}
		cfg := Geometry(sizes[int(sizeSel)%3], pages[int(pageSel)%3], 4)
		c := New(cfg)
		v := c.SuggestVictim(addr)
		c.Fill(v, asid, addr, UserRead|UserWrite|SupWrite|Exclusive)
		for _, acc := range []Access{{}, {Write: true}, {Super: true}, {Super: true, Write: true}} {
			if _, res := c.Lookup(asid, addr, acc); res != Hit {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: the sum of hits and misses equals references replayed.
func TestReplayCountsProperty(t *testing.T) {
	f := func(seed uint64) bool {
		refs, err := workload.Generate(workload.Edit, seed, 20_000)
		if err != nil {
			return false
		}
		st := Simulate(cfg256(), trace.NewSliceSource(refs))
		return st.Hits+st.Misses+st.WriteMisses == uint64(len(refs))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 10}); err != nil {
		t.Error(err)
	}
}

// The headline calibration: an ATUM-like trace at 128KB/256B/4-way must
// land in the sub-percent miss-ratio regime the paper reports, and the
// miss ratio must fall (weakly) as cache size grows.
func TestMissRatioRegime(t *testing.T) {
	refs, err := workload.Generate(workload.Edit, 11, workload.DefaultTraceLen)
	if err != nil {
		t.Fatal(err)
	}
	var prev float64 = 1
	for _, size := range []int{64 << 10, 128 << 10, 256 << 10} {
		st := Simulate(Geometry(size, 256, 4), trace.NewSliceSource(refs))
		mr := st.MissRatio()
		if mr > prev*1.05 { // allow tiny non-monotonic noise
			t.Errorf("miss ratio rose with cache size: %v at %dKB (prev %v)", mr, size>>10, prev)
		}
		prev = mr
		if size == 128<<10 && (mr < 0.0005 || mr > 0.02) {
			t.Errorf("128KB/256B miss ratio %.4f outside the paper's regime", mr)
		}
	}
}

func TestSimulateSequentialSpatialLocality(t *testing.T) {
	// A pure sequential walk should miss exactly once per page.
	refs := workload.Sequential(1, 0, 4096, trace.Read) // 16KB walk
	st := Simulate(Geometry(64<<10, 256, 4), trace.NewSliceSource(refs))
	wantMisses := uint64(16 << 10 / 256)
	if st.Misses != wantMisses {
		t.Errorf("sequential misses = %d, want %d", st.Misses, wantMisses)
	}
}

func TestSimulateStrideThrashing(t *testing.T) {
	// Stride = page size: every ref a new page; with a footprint far
	// beyond the cache every reference misses.
	refs := workload.Stride(1, 0, 4096, 512, trace.Read) // 2MB span, 512B stride
	st := Simulate(Geometry(64<<10, 512, 4), trace.NewSliceSource(refs))
	if st.Misses != 4096 {
		t.Errorf("stride misses = %d, want 4096", st.Misses)
	}
}
