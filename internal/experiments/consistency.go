package experiments

import (
	"vmp/internal/sim"
	"vmp/internal/stats"
	"vmp/internal/trace"
)

// AblationConsistency quantifies Section 5.4's premise that "the effect
// of consistency interrupts can be incorporated into the above figures
// by assuming a higher miss ratio": four processors run the edit
// workload with a varying fraction of references redirected to a shared
// read/write region, and the experiment reports the *effective* miss
// ratio each processor sees (fills per reference — including the fills
// caused by invalidations and downgrades) against its unshared
// baseline, plus the resulting processor performance.
func AblationConsistency(o Options) (*Result, error) {
	refsPer := 120_000
	if o.Quick {
		refsPer = 25_000
	}
	const procs = 4

	run := func(sharePct int) (missRatio, perf float64, intr uint64, err error) {
		streams, err := editStreams(o.Seed, procs, refsPer, 24)
		if err != nil {
			return 0, 0, 0, err
		}
		shareRefs(streams, o.Seed*99, sharePct, 16) // 4 KB of contended data
		m, err := o.replay(machineSpec(procs, 128<<10).Config(), streams)
		if err != nil {
			return 0, 0, 0, err
		}
		var fills, refs, words uint64
		var perfSum float64
		for i, b := range m.Boards {
			fills += b.Cache.Stats().Fills
			refs += b.Stats().Refs
			words += b.Stats().IntrWords
			perfSum += m.Performance(i)
		}
		return float64(fills) / float64(refs), perfSum / procs, words, nil
	}

	t := stats.NewTable("Consistency overhead as effective miss-ratio inflation (4 CPUs)",
		"Shared Data Refs (%)", "Effective Miss Ratio (%)", "Consistency Interrupts", "Mean Performance")
	for _, pct := range []int{0, 1, 2, 5} {
		mr, perf, words, err := run(pct)
		if err != nil {
			return nil, err
		}
		t.Add(pct, 100*mr, words, perf)
	}
	t.Note = "sharing inflates the fill rate exactly as the paper's 'hypothesize a higher miss ratio' suggests"
	return &Result{
		ID:    "consistency",
		Title: "consistency interrupts as an effective miss-ratio increase",
		Table: t,
		PaperNote: "Section 5: \"consistency overhead can be incorporated in these performance " +
			"estimates by hypothesizing a higher miss ratio than that suggested by the simulations\"",
	}, nil
}

// sharedBase is the shared region of consistency and misscost. It lives
// in the kernel virtual region, whose translation is common to all
// address spaces, so every processor reaches the same physical frames
// (user addresses would be private to each ASID).
const sharedBase = 0xd800_0000

// shareRefs redirects about pct% of each stream's data references,
// reads and writes alike, to random words of the first pages pages of
// sharedBase, drawing stream i's choices from sim.NewRand(mix+i).
func shareRefs(streams [][]trace.Ref, mix uint64, pct, pages int) {
	for i, s := range streams {
		rnd := sim.NewRand(mix + uint64(i))
		for j := range s {
			if s[j].Kind != trace.IFetch && rnd.Intn(100) < pct {
				s[j].VAddr = sharedBase + uint32(rnd.Intn(pages*64))*4
				s[j].Super = true // kernel-region access
			}
		}
	}
}
