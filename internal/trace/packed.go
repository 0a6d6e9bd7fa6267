package trace

// Packed is a reference stream stored at one uint32 per reference: the
// form a run holds a board's stream in from set-up to its end.
//
// A reference whose address is word-aligned, whose kind is IFetch,
// Read or Write, and whose Super and ASID equal the previous
// reference's is one word: the address with the kind in its two low
// bits. Any other reference is an escape of two words: a header whose
// low bits are 3, carrying the supervisor bit, the ASID and the kind,
// then the whole address. The first reference is compared with user
// mode and ASID 0. A stream of one address space so takes 4 bytes per
// reference, plus 8 per supervisor-mode switch, and any Ref sequence
// reads back exactly.
//
// A Packed is a value like a slice: its copies share the stored words.
// Readers only read them, so one stream may back any number of readers
// at once, but only one copy may be appended to.
type Packed struct {
	words []uint32
	n     int
	// super and asid are the mode and ASID of the last reference
	// appended.
	super bool
	asid  uint8
}

// Layout of a packed word.
const (
	escape   = 3      // low bits of an escape header; a plain word's kind otherwise
	superBit = 1 << 2 // supervisor bit of an escape header
)

// NewPacked returns an empty stream with room for n references of one
// address space: n words, plus n/128 + 8 for escapes.
func NewPacked(n int) Packed {
	return Packed{words: make([]uint32, 0, n+n/128+8)}
}

// Pack packs a slice of references.
func Pack(refs []Ref) Packed {
	p := NewPacked(len(refs))
	for _, r := range refs {
		p.Append(r)
	}
	return p
}

// Append adds r at the end of the stream.
func (p *Packed) Append(r Ref) {
	p.n++
	if r.VAddr&escape == 0 && r.Kind <= Write && r.Super == p.super && r.ASID == p.asid {
		p.words = append(p.words, r.VAddr|uint32(r.Kind))
		return
	}
	p.super, p.asid = r.Super, r.ASID
	h := escape | uint32(r.ASID)<<8 | uint32(r.Kind)<<16
	if r.Super {
		h |= superBit
	}
	p.words = append(p.words, h, r.VAddr)
}

// Len returns the number of references in the stream.
func (p Packed) Len() int { return p.n }

// Reader returns a reader at the start of the stream.
func (p Packed) Reader() PackedReader { return PackedReader{words: p.words} }

// PackedReader reads a Packed stream from its start. It implements
// Source.
type PackedReader struct {
	words []uint32
	pos   int
	// super and asid are those of the last escape read.
	super bool
	asid  uint8
}

// Next implements Source.
func (r *PackedReader) Next() (Ref, bool) {
	if r.pos >= len(r.words) {
		return Ref{}, false
	}
	w := r.words[r.pos]
	if w&escape != escape {
		r.pos++
		return Ref{Kind: Kind(w & escape), Super: r.super, ASID: r.asid, VAddr: w &^ escape}, true
	}
	r.super, r.asid = w&superBit != 0, uint8(w>>8)
	va := r.words[r.pos+1]
	r.pos += 2
	return Ref{Kind: Kind(w >> 16), Super: r.super, ASID: r.asid, VAddr: va}, true
}

// Done reports whether every reference has been read.
func (r *PackedReader) Done() bool { return r.pos >= len(r.words) }
