package trace_test

import (
	"encoding/binary"
	"math/rand/v2"
	"runtime"
	"testing"

	"vmp/internal/trace"
	"vmp/internal/workload"
)

// readPacked reads p back through a fresh reader, checking that Done
// turns true exactly after the last reference.
func readPacked(t *testing.T, p trace.Packed) []trace.Ref {
	t.Helper()
	var out []trace.Ref
	rd := p.Reader()
	for !rd.Done() {
		r, ok := rd.Next()
		if !ok {
			t.Fatalf("Next ended after %d references while Done was false", len(out))
		}
		out = append(out, r)
	}
	if r, ok := rd.Next(); ok {
		t.Fatalf("Next returned %v after Done", r)
	}
	return out
}

// checkRoundTrip packs refs with Pack and with one Append at a time,
// and requires both to read back as refs.
func checkRoundTrip(t *testing.T, refs []trace.Ref) {
	t.Helper()
	appended := trace.NewPacked(0)
	for _, r := range refs {
		appended.Append(r)
	}
	for _, p := range []trace.Packed{trace.Pack(refs), appended} {
		if p.Len() != len(refs) {
			t.Fatalf("Len %d, want %d", p.Len(), len(refs))
		}
		got := readPacked(t, p)
		if len(got) != len(refs) {
			t.Fatalf("read %d references, want %d", len(got), len(refs))
		}
		for i := range refs {
			if got[i] != refs[i] {
				t.Fatalf("reference %d: %v, want %v", i, got[i], refs[i])
			}
		}
	}
}

// TestPackedRoundTrip packs seeded random sequences over every kind
// (and kinds no trace holds), both modes, several ASIDs, aligned and
// unaligned addresses and the extreme addresses, and reads them back.
func TestPackedRoundTrip(t *testing.T) {
	checkRoundTrip(t, nil)
	checkRoundTrip(t, []trace.Ref{
		{Kind: trace.Read, VAddr: 0},
		{Kind: trace.IFetch, VAddr: 0xffffffff},
		{Kind: trace.Write, VAddr: 0xfffffffc},
		{Kind: trace.Write, Super: true, ASID: 255, VAddr: 0},
		{Kind: trace.Kind(3), VAddr: 4},
		{Kind: trace.Kind(255), Super: true, ASID: 255, VAddr: 0xffffffff},
	})
	for seed := uint64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewPCG(seed, 0))
		refs := make([]trace.Ref, 1+rng.IntN(3000))
		asids := []uint8{0, 1, 2, 7, 255}
		r := trace.Ref{ASID: 1}
		for i := range refs {
			r.Kind = trace.Kind(rng.IntN(3))
			if rng.IntN(50) == 0 {
				r.Kind = trace.Kind(rng.IntN(256))
			}
			if rng.IntN(20) == 0 {
				r.Super = !r.Super
			}
			if rng.IntN(30) == 0 {
				r.ASID = asids[rng.IntN(len(asids))]
			}
			switch rng.IntN(10) {
			case 0:
				r.VAddr = rng.Uint32() // any alignment
			case 1:
				r.VAddr = []uint32{0, 0xffffffff, 0xfffffffc, 3}[rng.IntN(4)]
			default:
				r.VAddr = rng.Uint32() &^ 3
			}
			refs[i] = r
		}
		checkRoundTrip(t, refs)
	}
}

// FuzzPacked packs the references the input encodes, seven bytes each
// (kind, mode, ASID, address), and requires them to read back.
func FuzzPacked(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{2, 1, 9, 0xff, 0xff, 0xff, 0xff})
	f.Add([]byte{0, 0, 1, 0x00, 0x10, 0, 0, 1, 0, 1, 0x04, 0x10, 0, 0, 1, 1, 1, 0x08, 0x10, 0, 0xc0})
	f.Add([]byte{3, 0, 0, 1, 0, 0, 0, 0, 0, 0, 2, 0, 0, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		var refs []trace.Ref
		for ; len(data) >= 7; data = data[7:] {
			refs = append(refs, trace.Ref{
				Kind:  trace.Kind(data[0]),
				Super: data[1]&1 != 0,
				ASID:  data[2],
				VAddr: binary.LittleEndian.Uint32(data[3:]),
			})
		}
		checkRoundTrip(t, refs)
	})
}

// TestPackedSize packs 200k references of each profile, stamped as
// set-up stamps board 3's stream (ASID 4, the kernel region moved up
// by 3<<24), and requires one allocation of at most 4.05 bytes per
// reference: the words NewPacked reserves hold every escape, so the
// stream never regrows. The allocator serves so large an object in
// whole 8 KB pages, which the bound allows for once.
func TestPackedSize(t *testing.T) {
	const n, board, page = 200_000, 3, 8 << 10
	for _, prof := range workload.Profiles() {
		refs, err := workload.Generate(prof, 11+board*31, n)
		if err != nil {
			t.Fatal(err)
		}
		for i := range refs {
			refs[i].ASID = board + 1
			if refs[i].VAddr >= workload.KernelCodeBase {
				refs[i].VAddr += board << 24
			}
		}
		if allocs := testing.AllocsPerRun(1, func() { trace.Pack(refs) }); allocs != 1 {
			t.Errorf("%s: Pack made %v allocations, want 1", prof, allocs)
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		p := trace.Pack(refs)
		runtime.ReadMemStats(&after)
		if got := after.TotalAlloc - before.TotalAlloc; got > 4.05*n+page {
			t.Errorf("%s: %d bytes (%.4f per reference), want at most 4.05 per reference and one page",
				prof, got, float64(got)/n)
		}
		if p.Len() != n {
			t.Errorf("%s: Len %d, want %d", prof, p.Len(), n)
		}
	}
}
