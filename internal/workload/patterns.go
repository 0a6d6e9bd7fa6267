package workload

import "vmp/internal/trace"

// Simple deterministic reference patterns used by protocol and baseline
// experiments. These complement the program-structured generators: they
// isolate one access behaviour so an experiment can attribute costs.

// Sequential returns n refs walking a region word by word: the best case
// for large cache pages and block transfer.
func Sequential(asid uint8, base uint32, n int, kind trace.Kind) []trace.Ref {
	refs := make([]trace.Ref, n)
	for i := range refs {
		refs[i] = trace.Ref{Kind: kind, ASID: asid, VAddr: base + uint32(i)*4}
	}
	return refs
}

// Stride returns n refs separated by stride bytes: with stride >= the
// page size, every reference misses (the worst case for large pages).
func Stride(asid uint8, base uint32, n, stride int, kind trace.Kind) []trace.Ref {
	refs := make([]trace.Ref, n)
	for i := range refs {
		refs[i] = trace.Ref{Kind: kind, ASID: asid, VAddr: base + uint32(i*stride)}
	}
	return refs
}

// PingPong returns, for each of nProcs processors, a ref stream that
// repeatedly writes then reads the same shared word — the worst-case
// data-contention pattern for an ownership protocol (every write forces
// a transfer of ownership). rounds is the number of write+read pairs per
// processor.
func PingPong(nProcs int, addr uint32, rounds int) [][]trace.Ref {
	streams := make([][]trace.Ref, nProcs)
	for p := range streams {
		refs := make([]trace.Ref, 0, 2*rounds)
		for i := 0; i < rounds; i++ {
			refs = append(refs,
				trace.Ref{Kind: trace.Write, ASID: 1, VAddr: addr},
				trace.Ref{Kind: trace.Read, ASID: 1, VAddr: addr},
			)
		}
		streams[p] = refs
	}
	return streams
}

// FalseSharing returns per-processor streams where each processor writes
// its own word, but all words share one cache page of the given size —
// contention caused purely by the large page granularity.
func FalseSharing(nProcs int, base uint32, pageSize, rounds int) [][]trace.Ref {
	streams := make([][]trace.Ref, nProcs)
	for p := range streams {
		addr := base + uint32(p*4)
		_ = pageSize // all words fall in [base, base+pageSize)
		refs := make([]trace.Ref, 0, 2*rounds)
		for i := 0; i < rounds; i++ {
			refs = append(refs,
				trace.Ref{Kind: trace.Write, ASID: 1, VAddr: addr},
				trace.Ref{Kind: trace.Read, ASID: 1, VAddr: addr},
			)
		}
		streams[p] = refs
	}
	return streams
}

// ReadSharing returns per-processor streams that all read the same
// region: an ownership protocol should serve these with shared copies
// and no contention after warmup.
func ReadSharing(nProcs int, base uint32, size, rounds int) [][]trace.Ref {
	streams := make([][]trace.Ref, nProcs)
	words := size / 4
	for p := range streams {
		refs := make([]trace.Ref, 0, rounds)
		for i := 0; i < rounds; i++ {
			refs = append(refs, trace.Ref{
				Kind: trace.Read, ASID: 1, VAddr: base + uint32(i%words)*4,
			})
		}
		streams[p] = refs
	}
	return streams
}

// MigratoryStreams models data that migrates between processors: each
// processor in turn reads then updates a shared record before the next
// processor takes over. Returned streams interleave so that processor p
// touches the record in rounds where round%nProcs == p; the simulator's
// timing decides actual interleaving.
func MigratoryStreams(nProcs int, base uint32, recordWords, rounds int) [][]trace.Ref {
	streams := make([][]trace.Ref, nProcs)
	for p := 0; p < nProcs; p++ {
		var refs []trace.Ref
		for round := p; round < rounds; round += nProcs {
			for w := 0; w < recordWords; w++ {
				refs = append(refs, trace.Ref{Kind: trace.Read, ASID: 1, VAddr: base + uint32(w)*4})
			}
			for w := 0; w < recordWords; w++ {
				refs = append(refs, trace.Ref{Kind: trace.Write, ASID: 1, VAddr: base + uint32(w)*4})
			}
		}
		streams[p] = refs
	}
	return streams
}
