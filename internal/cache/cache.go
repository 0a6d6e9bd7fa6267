// Package cache models VMP's virtually addressed cache hardware.
//
// The cache is addressed by <ASID, virtual address>: no translation
// happens on the processor-to-cache path, which is what gives VMP its
// single-master, zero-wait-state processor connection. Geometry follows
// the prototype: page sizes of 128, 256 or 512 bytes, associativity 1-4
// ("number of sets" in the paper's terminology), and 16-256 pages per
// way, for total sizes of 64-256 KB.
//
// The hardware keeps, per slot: the tag, LRU state used to *suggest* a
// replacement victim, and the flag bits the paper lists (valid,
// modified, exclusive-ownership, supervisor-writable, user-readable,
// user-writable). Everything else — physical addresses, page states,
// the reverse phys-to-slot map — is software state owned by the miss
// handler (package core), exactly as in the paper: the bus monitor and
// miss handler never read the cache tags.
package cache

import (
	"fmt"

	"vmp/internal/stats"
)

// Flags is the per-slot flag word.
type Flags uint8

// Per-slot hardware flags from Section 4 of the paper.
const (
	Valid     Flags = 1 << iota // slot holds a cache page
	Modified                    // written since load
	Exclusive                   // this cache owns the page (private)
	SupWrite                    // supervisor may write
	UserRead                    // user mode may read
	UserWrite                   // user mode may write
)

// Has reports whether all bits in f are set.
func (f Flags) Has(bits Flags) bool { return f&bits == bits }

// String renders the flag word as "VMESWRU"-style letters.
func (f Flags) String() string {
	b := []byte("......")
	if f.Has(Valid) {
		b[0] = 'V'
	}
	if f.Has(Modified) {
		b[1] = 'M'
	}
	if f.Has(Exclusive) {
		b[2] = 'E'
	}
	if f.Has(SupWrite) {
		b[3] = 'S'
	}
	if f.Has(UserRead) {
		b[4] = 'r'
	}
	if f.Has(UserWrite) {
		b[5] = 'w'
	}
	return string(b)
}

// Config fixes the cache geometry.
type Config struct {
	PageSize int // bytes per cache page: 128, 256 or 512 in the prototype
	Rows     int // pages per way ("pages per set"), a power of two
	Assoc    int // ways ("sets" in the paper), 1-4 in the prototype
}

// Validate checks the geometry is usable.
func (c Config) Validate() error {
	if c.PageSize <= 0 || c.PageSize&(c.PageSize-1) != 0 {
		return fmt.Errorf("cache: page size %d not a positive power of two", c.PageSize)
	}
	if c.Rows <= 0 || c.Rows&(c.Rows-1) != 0 {
		return fmt.Errorf("cache: rows %d not a positive power of two", c.Rows)
	}
	if c.Assoc <= 0 {
		return fmt.Errorf("cache: associativity %d", c.Assoc)
	}
	return nil
}

// Size returns the total cache capacity in bytes.
func (c Config) Size() int { return c.PageSize * c.Rows * c.Assoc }

// Slots returns the number of cache slots.
func (c Config) Slots() int { return c.Rows * c.Assoc }

// Geometry returns a Config for a total size and page size at the given
// associativity, e.g. Geometry(128<<10, 256, 4).
func Geometry(totalSize, pageSize, assoc int) Config {
	return Config{PageSize: pageSize, Rows: totalSize / (pageSize * assoc), Assoc: assoc}
}

// SlotID identifies a cache slot: row*assoc + way.
type SlotID int

// Access describes one processor reference for permission checking.
type Access struct {
	Write bool
	Super bool
}

// Result classifies a cache lookup.
type Result int

// Lookup results.
const (
	// Hit: the reference completes at processor speed.
	Hit Result = iota
	// Miss: no valid slot matches <ASID, page>.
	Miss
	// WriteMiss: a matching slot exists but the processor writes
	// without ownership (Exclusive clear). The miss handler must
	// negotiate ownership (assert-ownership bus transaction).
	WriteMiss
	// ProtFault: a matching slot exists but the access violates the
	// protection flags; the operating system gets control.
	ProtFault
)

// String names the result.
func (r Result) String() string {
	switch r {
	case Hit:
		return "hit"
	case Miss:
		return "miss"
	case WriteMiss:
		return "write-miss"
	case ProtFault:
		return "prot-fault"
	default:
		return fmt.Sprintf("Result(%d)", int(r))
	}
}

// Slot is the externally visible state of one cache slot.
type Slot struct {
	ASID  uint8
	VPage uint32 // virtual address / page size
	Flags Flags
}

type slot struct {
	Slot
	lastUse uint64
}

// Stats counts cache events.
type Stats struct {
	Hits        uint64
	Misses      uint64
	WriteMisses uint64 // ownership (write-to-shared) misses
	ProtFaults  uint64
	Fills       uint64
	Invalidates uint64
	Downgrades  uint64
}

// MissRatio returns (Misses+WriteMisses) / references.
func (s Stats) MissRatio() float64 {
	total := s.Hits + s.Misses + s.WriteMisses
	if total == 0 {
		return 0
	}
	return float64(s.Misses+s.WriteMisses) / float64(total)
}

// Cache is the cache hardware model. Create with New.
type Cache struct {
	cfg   Config
	slots []slot // rows × assoc, row-major
	tick  uint64
	stats Stats
}

// New builds a cache; it panics on an invalid geometry (a configuration
// bug, not a runtime condition).
func New(cfg Config) *Cache {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	return &Cache{
		cfg:   cfg,
		slots: make([]slot, cfg.Slots()),
	}
}

// Register indexes the event counters in a run's metrics sink under
// the given name prefix (e.g. "board0/cache/").
func (c *Cache) Register(rec *stats.Recorder, prefix string) {
	s := &c.stats
	stats.Register(rec, prefix+"hits", &s.Hits)
	stats.Register(rec, prefix+"misses", &s.Misses)
	stats.Register(rec, prefix+"write-misses", &s.WriteMisses)
	stats.Register(rec, prefix+"prot-faults", &s.ProtFaults)
	stats.Register(rec, prefix+"fills", &s.Fills)
	stats.Register(rec, prefix+"invalidates", &s.Invalidates)
	stats.Register(rec, prefix+"downgrades", &s.Downgrades)
}

// Config returns the cache geometry.
func (c *Cache) Config() Config { return c.cfg }

// Stats returns a copy of the event counters.
func (c *Cache) Stats() Stats { return c.stats }

// VPage converts a virtual address to its cache-page number.
func (c *Cache) VPage(vaddr uint32) uint32 { return vaddr / uint32(c.cfg.PageSize) }

func (c *Cache) row(vpage uint32) int { return int(vpage) & (c.cfg.Rows - 1) }

// Lookup performs one reference. On Hit with a write access, the slot's
// Modified bit is set, as the hardware would. The returned SlotID is the
// matching slot for Hit/WriteMiss/ProtFault and invalid (-1) for Miss.
//
//vmplint:hotpath
func (c *Cache) Lookup(asid uint8, vaddr uint32, acc Access) (SlotID, Result) {
	vpage := c.VPage(vaddr)
	row := c.row(vpage)
	base := row * c.cfg.Assoc
	for way := 0; way < c.cfg.Assoc; way++ {
		s := &c.slots[base+way]
		if !s.Flags.Has(Valid) || s.ASID != asid || s.VPage != vpage {
			continue
		}
		id := SlotID(base + way)
		if !c.permitted(s.Flags, acc) {
			c.stats.ProtFaults++
			return id, ProtFault
		}
		if acc.Write && !s.Flags.Has(Exclusive) {
			c.stats.WriteMisses++
			return id, WriteMiss
		}
		c.tick++
		s.lastUse = c.tick
		if acc.Write {
			s.Flags |= Modified
		}
		c.stats.Hits++
		return id, Hit
	}
	c.stats.Misses++
	return -1, Miss
}

// permitted applies the protection flags to an access.
//
//vmplint:hotpath
func (c *Cache) permitted(f Flags, acc Access) bool {
	if acc.Super {
		// Supervisor reads are always allowed; writes need SupWrite.
		return !acc.Write || f.Has(SupWrite)
	}
	if acc.Write {
		return f.Has(UserWrite)
	}
	return f.Has(UserRead)
}

// SuggestVictim returns the hardware's suggested replacement slot for a
// fill of vaddr: an invalid slot in the row if one exists, otherwise the
// least recently used slot.
//
//vmplint:hotpath
func (c *Cache) SuggestVictim(vaddr uint32) SlotID {
	row := c.row(c.VPage(vaddr))
	base := row * c.cfg.Assoc
	best := base
	for way := 0; way < c.cfg.Assoc; way++ {
		s := &c.slots[base+way]
		if !s.Flags.Has(Valid) {
			return SlotID(base + way)
		}
		if s.lastUse < c.slots[best].lastUse {
			best = base + way
		}
	}
	return SlotID(best)
}

// Fill loads a slot with a new page and flags. The caller (the miss
// handler) is responsible for having written back or invalidated the
// previous occupant.
func (c *Cache) Fill(id SlotID, asid uint8, vaddr uint32, flags Flags) {
	vpage := c.VPage(vaddr)
	if c.row(vpage)*c.cfg.Assoc > int(id) || int(id) >= (c.row(vpage)+1)*c.cfg.Assoc {
		panic(fmt.Sprintf("cache: Fill of slot %d outside row for vaddr %#x", id, vaddr))
	}
	c.tick++
	c.slots[id] = slot{
		Slot:    Slot{ASID: asid, VPage: vpage, Flags: flags | Valid},
		lastUse: c.tick,
	}
	c.stats.Fills++
}

// Invalidate clears a slot.
func (c *Cache) Invalidate(id SlotID) {
	c.slots[id] = slot{}
	c.stats.Invalidates++
}

// Downgrade clears Exclusive (and Modified) on a slot, making the copy
// shared read-only with respect to ownership; protection flags remain.
// The caller must have written the page back if it was modified.
func (c *Cache) Downgrade(id SlotID) {
	c.slots[id].Flags &^= Exclusive | Modified
	c.stats.Downgrades++
}

// SetFlags replaces the permission/ownership flags of a slot, keeping
// Valid.
func (c *Cache) SetFlags(id SlotID, flags Flags) {
	c.slots[id].Flags = flags | Valid
}

// SlotState returns a copy of the slot's visible state.
func (c *Cache) SlotState(id SlotID) Slot { return c.slots[id].Slot }

// FindVirtual returns the slot holding <asid, page of vaddr>, if any,
// regardless of permissions.
func (c *Cache) FindVirtual(asid uint8, vaddr uint32) (SlotID, bool) {
	vpage := c.VPage(vaddr)
	base := c.row(vpage) * c.cfg.Assoc
	for way := 0; way < c.cfg.Assoc; way++ {
		s := &c.slots[base+way]
		if s.Flags.Has(Valid) && s.ASID == asid && s.VPage == vpage {
			return SlotID(base + way), true
		}
	}
	return -1, false
}

// ValidSlots calls fn for every valid slot; fn must not mutate the
// cache. Used by the miss handler's recovery path (FIFO overflow) and
// by tests.
func (c *Cache) ValidSlots(fn func(SlotID, Slot)) {
	for i := range c.slots {
		if c.slots[i].Flags.Has(Valid) {
			fn(SlotID(i), c.slots[i].Slot)
		}
	}
}

// InvalidateAll clears the whole cache (used by tests and by the
// FIFO-overflow recovery path's conservative variant).
func (c *Cache) InvalidateAll() {
	for i := range c.slots {
		if c.slots[i].Flags.Has(Valid) {
			c.Invalidate(SlotID(i))
		}
	}
}
