package experiments

import (
	"fmt"

	"vmp/internal/obs"
)

// MissCost measures the Table-2-style miss-cost breakdown from the
// observability event stream instead of recomputing it from the timing
// constants: four processors run the edit workload with a slice of
// references redirected to a shared kernel region (so the stream
// contains contended phases — write-backs, retries, upgrades — not just
// the cold-start fill path), and the per-phase latency histograms the
// sink maintains become the table. The note carries the stream digest,
// which doubles as the serial-vs-parallel byte-identity witness: CI
// diffs vmpbench output across worker counts, and a digest mismatch
// would surface there.
func MissCost(o Options) (*Result, error) {
	refsPer := 60_000
	if o.Quick {
		refsPer = 15_000
	}
	const procs = 4
	streams, err := editStreams(o.Seed, procs, refsPer, 24)
	if err != nil {
		return nil, err
	}
	shareRefs(streams, o.Seed*77, 2, 8)
	cfg := machineSpec(procs, 128<<10).Config()
	cfg.Obs = &obs.Config{Stream: true}
	m, err := o.replay(cfg, streams)
	if err != nil {
		return nil, err
	}

	sink := m.Sink()
	t := sink.PhaseTable()
	hottest := "none"
	if hot := sink.HotPages(1); len(hot) > 0 {
		hottest = fmt.Sprintf("%#08x (%d consistency txns, %d aborts)",
			hot[0].PAddr, hot[0].Traffic, hot[0].Aborts)
	}
	t.Note = fmt.Sprintf("event stream: %d events, digest %016x; hottest page %s",
		sink.Total(), sink.Digest(), hottest)
	return &Result{
		ID:    "misscost",
		Title: "per-phase miss-cost breakdown from the event stream",
		Table: t,
		PaperNote: "Table 2: average miss cost 17µs elapsed / 4.4µs bus at 128-byte pages, " +
			"21.29µs / 8.316µs at 256-byte (75% clean victims); the phase rows here are " +
			"measured spans of the same handler decomposition",
	}, nil
}
