package scenario

import (
	"os"
	"sort"
	"testing"
	"time"

	"vmp/internal/obs"
	"vmp/internal/sim"
)

// guardSpec is the benchmark's contended-misses workload, the heaviest
// emitter among its four: 4 boards with 16 KB caches of 256-byte pages,
// 4-way, the compile profile and a shared kernel.
func guardSpec(stream bool) Spec {
	return Spec{
		Name:     "tracing-guard",
		Seed:     11,
		Machine:  MachineSpec{Processors: 4, CacheSize: 16 << 10, PageSize: 256, Assoc: 4},
		Workload: WorkloadSpec{Kind: WorkloadProfile, Profile: "compile", Refs: 200_000, ShareKernel: true},
		Obs:      ObsSpec{Stream: stream},
	}
}

// TestTracingOverheadGuard is the CI 5% budget check on the flight
// recorder every machine carries, computed by count. Emit's cost depends
// on the event's class: a phase event adds a histogram sample, a
// consistency bus event updates the hot-page map, and any other event
// only enters the ring. The guard counts the events of each class in
// one retained stream, prices one Emit per class with testing.Benchmark
// on a fresh ring-only sink, and fails when count × price exceeds 5% of
// the median event-loop wall time of ring-only runs. A count does not
// move with the host's load the way a ratio of two wall times does.
// Opt-in via VMP_OVERHEAD_GUARD=1 because the runs and the pricing take
// seconds.
func TestTracingOverheadGuard(t *testing.T) {
	if os.Getenv("VMP_OVERHEAD_GUARD") != "1" {
		t.Skip("set VMP_OVERHEAD_GUARD=1 to run the tracing-overhead guard")
	}
	res, err := Run(guardSpec(true))
	if err != nil {
		t.Fatal(err)
	}
	sink := res.Machine.Sink()
	stream := sink.Stream()
	var phaseDurs []sim.Time
	var consistency, other int
	for _, e := range stream {
		switch {
		case e.Kind == obs.KindPhase:
			phaseDurs = append(phaseDurs, e.Dur)
		case e.Kind == obs.KindBus && e.Flags&obs.FlagConsistency != 0:
			consistency++
		default:
			other++
		}
	}
	phase := len(phaseDurs)
	if phase == 0 || consistency == 0 || other == 0 {
		t.Fatalf("event classes %d phase, %d consistency bus, %d other: the workload must emit every class",
			phase, consistency, other)
	}

	const runs = 5
	walls := make([]time.Duration, runs)
	for i := range walls {
		r, err := Run(guardSpec(false))
		if err != nil {
			t.Fatal(err)
		}
		if n := r.Machine.Sink().Total(); n != uint64(len(stream)) {
			t.Fatalf("ring-only run emitted %d events, the retained stream has %d", n, len(stream))
		}
		walls[i] = r.Machine.Eng.Metrics().Wall
	}
	sort.Slice(walls, func(i, j int) bool { return walls[i] < walls[j] })
	loopNs := float64(walls[runs/2].Nanoseconds())

	// A phase event is priced at the run's median phase duration, a
	// typical histogram sample; a consistency bus event cycles over the
	// run's own pages, so the hot-page map has the run's size; any other
	// event only enters the ring.
	sort.Slice(phaseDurs, func(i, j int) bool { return phaseDurs[i] < phaseDurs[j] })
	phaseNs := emitNs([]obs.Event{{Kind: obs.KindPhase, Arg: uint8(obs.PhaseMiss), Dur: phaseDurs[phase/2]}})
	var pages []obs.Event
	for _, ps := range sink.HotPages(0) {
		pages = append(pages, obs.Event{Kind: obs.KindBus, PAddr: ps.PAddr, Flags: obs.FlagConsistency})
	}
	consistencyNs := emitNs(pages)
	otherNs := emitNs([]obs.Event{{Kind: obs.KindIntr}})
	costNs := float64(phase)*phaseNs + float64(consistency)*consistencyNs + float64(other)*otherNs
	t.Logf("%d phase, %d consistency-bus and %d other events at %.1f, %.1f and %.1f ns: %.2f ms against a %.1f ms event loop (median of %d, %v–%v), %.2f%%",
		phase, consistency, other, phaseNs, consistencyNs, otherNs,
		costNs/1e6, loopNs/1e6, runs, walls[0], walls[runs-1], costNs/loopNs*100)
	if costNs > loopNs*0.05 {
		t.Errorf("ring emissions cost %.1f%% of the event loop, which exceeds the 5%% budget (%.2f ms of %.1f ms)",
			costNs/loopNs*100, costNs/1e6, loopNs/1e6)
	}
}

// emitNs prices one Emit into a fresh ring-only sink, cycling over evs.
func emitNs(evs []obs.Event) float64 {
	r := testing.Benchmark(func(b *testing.B) {
		s := obs.NewSink(obs.Config{}, nil)
		b.ResetTimer()
		for i, k := 0, 0; i < b.N; i++ {
			s.Emit(evs[k])
			if k++; k == len(evs) {
				k = 0
			}
		}
	})
	return float64(r.T.Nanoseconds()) / float64(r.N)
}
