// Package perf collects the repo's benchmark-trajectory snapshot: a
// small pinned suite measuring the simulator's own hot paths (host-side
// speed, not simulated time), emitted as BENCH_<n>.json so per-PR perf
// claims are reviewable as a committed trajectory rather than asserted
// in prose. The numbers are host-dependent by nature — a snapshot is
// comparable to its predecessors on the same class of machine, and the
// environment block records what ran it.
//
// Two layers:
//
//   - Macro: one pinned scenario run end to end through scenario.Run,
//     reporting engine events/sec, simulated-refs/sec and host ns per
//     simulated miss — the figures ROADMAP item 2's speed campaign is
//     judged on.
//   - Micro: allocs/op and ns/op for the hot components (engine event
//     queue, process handoff and spawn, block-copier transfer, bus
//     transaction path, cache lookup, trace-driven hit, monitor check,
//     store, telemetry), via testing.Benchmark so the op counts are
//     calibrated the same way `go test -bench` calibrates them.
package perf

import (
	"fmt"
	"os"
	"runtime"
	"testing"
	"time"

	"vmp/internal/bus"
	"vmp/internal/cache"
	"vmp/internal/copier"
	"vmp/internal/core"
	"vmp/internal/monitor"
	"vmp/internal/scenario"
	"vmp/internal/serve"
	"vmp/internal/sim"
	"vmp/internal/telemetry"
	"vmp/internal/trace"
	"vmp/internal/workload"
)

// Micro is one micro-benchmark result.
type Micro struct {
	Name        string  `json:"name"`
	NsPerOp     float64 `json:"ns_per_op"`
	AllocsPerOp int64   `json:"allocs_per_op"`
	BytesPerOp  int64   `json:"bytes_per_op"`
}

// Macro is the pinned end-to-end scenario measurement.
type Macro struct {
	Scenario       string  `json:"scenario"`
	Fingerprint    string  `json:"fingerprint"`
	WallMs         float64 `json:"wall_ms"`
	SimMs          float64 `json:"sim_ms"`
	Refs           uint64  `json:"refs"`
	Misses         uint64  `json:"misses"`
	EventsFired    uint64  `json:"events_fired"`
	EventsPerSec   float64 `json:"events_per_sec"`
	RefsPerSec     float64 `json:"simulated_refs_per_sec"`
	NsPerMiss      float64 `json:"host_ns_per_miss"`
	SimNsPerWallMs float64 `json:"sim_ns_per_wall_ms"`
}

// Snapshot is the full benchmark-trajectory record for one revision.
type Snapshot struct {
	Version   int     `json:"version"`
	GoVersion string  `json:"go_version"`
	GOOS      string  `json:"goos"`
	GOARCH    string  `json:"goarch"`
	CPUs      int     `json:"cpus"`
	Macro     Macro   `json:"macro"`
	Micro     []Micro `json:"micro"`
}

// macroSpec is the pinned scenario the macro layer runs: the standard
// 4-processor contended machine on the edit profile, long enough that
// steady-state dominates cold start. Changing it breaks trajectory
// comparability, so don't.
func macroSpec() scenario.Spec {
	return scenario.Spec{
		Name: "bench-macro",
		Seed: 11,
		Machine: scenario.MachineSpec{
			Processors: 4,
			CacheSize:  64 << 10,
			PageSize:   256,
			Assoc:      4,
			MemorySize: 8 << 20,
		},
		Workload: scenario.WorkloadSpec{
			Kind:    scenario.WorkloadProfile,
			Profile: "edit",
			Refs:    100_000,
		},
	}
}

// Collect runs the suite and returns the snapshot.
func Collect() (*Snapshot, error) {
	s := &Snapshot{
		Version:   1,
		GoVersion: runtime.Version(),
		GOOS:      runtime.GOOS,
		GOARCH:    runtime.GOARCH,
		CPUs:      runtime.NumCPU(),
	}

	spec := macroSpec()
	start := time.Now()
	res, err := scenario.Run(spec)
	if err != nil {
		return nil, fmt.Errorf("perf: macro scenario: %w", err)
	}
	wall := time.Since(start)
	sum := res.Summary
	s.Macro = Macro{
		Scenario:    spec.Name,
		Fingerprint: res.Fingerprint,
		WallMs:      float64(wall) / float64(time.Millisecond),
		SimMs:       float64(sum.SimNs) / 1e6,
		Refs:        sum.Refs,
		Misses:      sum.Fills,
		EventsFired: sum.EventsFired,
	}
	if secs := wall.Seconds(); secs > 0 {
		s.Macro.EventsPerSec = float64(sum.EventsFired) / secs
		s.Macro.RefsPerSec = float64(sum.Refs) / secs
		s.Macro.SimNsPerWallMs = float64(sum.SimNs) / (float64(wall) / float64(time.Millisecond))
	}
	if sum.Fills > 0 {
		s.Macro.NsPerMiss = float64(wall.Nanoseconds()) / float64(sum.Fills)
	}

	for _, mb := range []struct {
		name string
		fn   func(*testing.B)
	}{
		{"engine/schedule-fire", benchEngine},
		{"sim/process-handoff", benchHandoff},
		{"sim/spawn-exit", benchSpawnExit},
		{"copier/transfer", benchCopier},
		{"bus/transaction", benchBus},
		{"interconnect/local-hit", benchInterconnectLocal},
		{"interconnect/cross-link", benchInterconnectCross},
		{"cache/lookup", benchCache},
		{"core/trace-hit", benchTraceHit},
		{"monitor/check", benchMonitor},
		{"serve/store-put", benchStorePut},
		{"serve/store-get", benchStoreGet},
		{"telemetry/counter-add", benchTelemetryCounter},
		{"telemetry/histogram-observe", benchTelemetryHistogram},
	} {
		r := testing.Benchmark(mb.fn)
		s.Micro = append(s.Micro, Micro{
			Name:        mb.name,
			NsPerOp:     float64(r.T.Nanoseconds()) / float64(r.N),
			AllocsPerOp: r.AllocsPerOp(),
			BytesPerOp:  r.AllocedBytesPerOp(),
		})
	}
	return s, nil
}

// benchEngine measures the event queue: schedule b.N timers at
// scattered deadlines, then drain. Cost per op covers one heap push and
// one pop+dispatch.
func benchEngine(b *testing.B) {
	eng := sim.NewEngine()
	nop := func() {}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		// Scatter deadlines so the heap actually reorders.
		eng.Schedule(sim.Time((i*2654435761)%4096), nop)
		if i%1024 == 1023 {
			eng.Run()
		}
	}
	eng.Run()
}

// benchHandoff measures one Delay round trip through a parked
// process: schedule the wake, switch to the engine, fire, switch back.
// A program-driven reference pays it once; a trace-driven reference
// pays it only when it needs the miss handler or interrupt service
// (see core/trace-hit).
func benchHandoff(b *testing.B) {
	eng := sim.NewEngine()
	b.ReportAllocs()
	b.ResetTimer()
	eng.Spawn("handoff", func(p *sim.Process) {
		for i := 0; i < b.N; i++ {
			p.Delay(1)
		}
	})
	eng.Run()
}

// benchSpawnExit measures a short-lived process: spawn one that delays
// once and returns, then wait it out. Each Spawn starts a fresh
// coroutine, so this is the cost of creating and ending one (kernel
// DMA spawns a process per transfer).
func benchSpawnExit(b *testing.B) {
	eng := sim.NewEngine()
	body := func(p *sim.Process) { p.Delay(1) }
	b.ReportAllocs()
	b.ResetTimer()
	eng.Spawn("driver", func(p *sim.Process) {
		for i := 0; i < b.N; i++ {
			eng.Spawn("child", body)
			p.Delay(2)
		}
	})
	eng.Run()
}

// benchCopier measures one block-copier transfer of a 256-byte cache
// page (read-shared), started and waited for by a CPU process. The
// copier's process is spawned by a warm-up transfer, so each timed
// transfer wakes it instead; this stays zero-alloc.
func benchCopier(b *testing.B) {
	eng := sim.NewEngine()
	cop := copier.New(eng, bus.New(eng), 0)
	tx := bus.Transaction{Op: bus.ReadShared, PAddr: 0, Bytes: 256}
	eng.Spawn("warm", func(p *sim.Process) { cop.Run(p, tx) })
	eng.Run()
	b.ReportAllocs()
	b.ResetTimer()
	eng.Spawn("bench", func(p *sim.Process) {
		for i := 0; i < b.N; i++ {
			cop.Run(p, tx)
		}
	})
	eng.Run()
	b.StopTimer()
	eng.KillProcesses()
}

// benchBus measures one consistency-related transaction through the
// full bus path: semaphore, 4-monitor check window, timing, counters.
func benchBus(b *testing.B) {
	eng := sim.NewEngine()
	bs := bus.New(eng)
	for id := 0; id < 4; id++ {
		bs.Attach(monitor.New(id, 1024, 256, 128, nil))
	}
	b.ReportAllocs()
	b.ResetTimer()
	eng.Spawn("bench", func(p *sim.Process) {
		for i := 0; i < b.N; i++ {
			bs.Do(p, bus.Transaction{
				Op:        bus.ReadShared,
				PAddr:     uint32((i % 1024) * 256),
				Requester: i % 4,
				Bytes:     256,
			})
		}
	})
	eng.Run()
}

// benchCache measures the cache lookup path on a realistic reference
// stream (mostly hits, with fills on the misses, like the simulator's
// own hot loop).
func benchCache(b *testing.B) {
	c := cache.New(cache.Geometry(128<<10, 256, 4))
	refs, err := workload.Generate(workload.Edit, 7, 100_000)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r := refs[i%len(refs)]
		if _, res := c.Lookup(r.ASID, r.VAddr, cache.Access{Write: r.IsWrite(), Super: r.Super}); res == cache.Miss {
			c.Fill(c.SuggestVictim(r.VAddr), r.ASID, r.VAddr, cache.UserRead|cache.UserWrite|cache.SupWrite)
		}
	}
}

// benchTraceHit measures one trace-driven reference that hits: its
// tick event looks it up, fetches the next reference and schedules
// that reference's tick, with no process switch. A one-reference run
// fills the cache page first.
func benchTraceHit(b *testing.B) {
	m, err := core.NewMachine(core.Config{Processors: 1})
	if err != nil {
		b.Fatal(err)
	}
	refs := make([]trace.Ref, b.N)
	for i := range refs {
		refs[i] = trace.Ref{Kind: trace.Read, ASID: 1, VAddr: workload.UserHeapBase}
	}
	if err := m.PrefaultTrace(refs[:1]); err != nil {
		b.Fatal(err)
	}
	m.RunTrace(0, trace.NewSliceSource(refs[:1]))
	m.Eng.Run()
	m.RunTrace(0, trace.NewSliceSource(refs))
	b.ReportAllocs()
	b.ResetTimer()
	m.Eng.Run()
	b.StopTimer()
	m.Eng.KillProcesses() // the copier that filled the page
}

// benchFingerprints yields n distinct well-formed fingerprints.
func benchFingerprints(n int) []string {
	fps := make([]string, n)
	for i := range fps {
		fps[i] = fmt.Sprintf("%016x", uint64(i)*2654435761+11)
	}
	return fps
}

// benchStorePayload is a realistic stored-record size: a marshaled
// CellResult is on the order of a kilobyte.
func benchStorePayload() []byte {
	p := make([]byte, 1024)
	for i := range p {
		p[i] = byte(i)
	}
	return p
}

// benchStorePut measures the daemon result store's durable write path:
// temp file, payload + checksum trailer, fsync, atomic rename, dirsync.
// Dominated by fsync, so this is really a disk figure — but it is the
// daemon's per-computed-cell overhead, which is why it is tracked.
func benchStorePut(b *testing.B) {
	dir, err := os.MkdirTemp("", "vmp-bench-store")
	if err != nil {
		b.Fatal(err)
	}
	defer os.RemoveAll(dir)
	st, err := serve.OpenStore(dir)
	if err != nil {
		b.Fatal(err)
	}
	fps := benchFingerprints(256)
	payload := benchStorePayload()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := st.Put(fps[i%len(fps)], payload); err != nil {
			b.Fatal(err)
		}
	}
}

// benchStoreGet measures the verified read path: file read plus
// checksum verification — the daemon's per-cache-hit cost.
func benchStoreGet(b *testing.B) {
	dir, err := os.MkdirTemp("", "vmp-bench-store")
	if err != nil {
		b.Fatal(err)
	}
	defer os.RemoveAll(dir)
	st, err := serve.OpenStore(dir)
	if err != nil {
		b.Fatal(err)
	}
	fps := benchFingerprints(256)
	payload := benchStorePayload()
	for _, fp := range fps {
		if err := st.Put(fp, payload); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := st.Get(fps[i%len(fps)]); err != nil {
			b.Fatal(err)
		}
	}
}

// benchTelemetryCounter pins the service-metrics hot path: an enabled
// counter increment must stay zero-alloc (the CI allocs gate compares
// this row against the committed snapshot).
func benchTelemetryCounter(b *testing.B) {
	reg := telemetry.NewRegistry()
	c := reg.Counter("vmp_bench_counter_total", "")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Add(1)
	}
}

// benchTelemetryHistogram pins the latency-observation hot path:
// bucket search plus the atomic sum update, zero-alloc.
func benchTelemetryHistogram(b *testing.B) {
	reg := telemetry.NewRegistry()
	h := reg.Histogram("vmp_bench_seconds", "", nil)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h.Observe(float64(i%16) * 0.01)
	}
}

// benchMonitor measures the check window's per-monitor cost: the table
// read plus the protocol reaction, on a table with a realistic mix of
// entries.
func benchMonitor(b *testing.B) {
	m := monitor.New(1, 1024, 256, 128, nil)
	for f := 0; f < 1024; f++ {
		switch f % 4 {
		case 1:
			m.SetAction(uint32(f*256), monitor.Shared)
		case 2:
			m.SetAction(uint32(f*256), monitor.Private)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.Check(bus.Transaction{
			Op:        bus.ReadPrivate,
			PAddr:     uint32((i % 1024) * 256),
			Requester: i % 4,
		})
	}
}

// benchInterconnectLocal measures a consistency transaction that the
// hierarchy's inclusion filter keeps on its home segment: directory
// probe, frame lock, home check window — no link crossing. The filter's
// whole point is that this path costs one bus, so it must stay
// zero-alloc like the flat bus transaction.
func benchInterconnectLocal(b *testing.B) {
	eng := sim.NewEngine()
	topo := bus.Topology{Buses: 2, BoardsPerBus: 2}
	h := bus.NewHierarchy(eng, topo, 256)
	for id := 0; id < 4; id++ {
		h.Attach(monitor.New(id, 1024, 256, 128, nil))
	}
	tx := func(i int) bus.Transaction {
		return bus.Transaction{
			Op:        bus.ReadShared,
			PAddr:     uint32((i % 1024) * 256),
			Requester: 0,
			Bytes:     256,
		}
	}
	// Prewarm the lazy directory entries and per-board counters so the
	// steady state measures the hit path, not first-touch setup.
	eng.Spawn("warm", func(p *sim.Process) {
		for i := 0; i < 1024; i++ {
			h.Do(p, tx(i))
		}
	})
	eng.Run()
	b.ReportAllocs()
	b.ResetTimer()
	eng.Spawn("bench", func(p *sim.Process) {
		for i := 0; i < b.N; i++ {
			h.Do(p, tx(i))
		}
	})
	eng.Run()
}

// benchInterconnectCross measures the same transaction when a remote
// segment holds the page: the directory forwards it across the
// inter-bus link and runs the remote check window too, so the figure
// bounds the cost ratio against the local hit above.
func benchInterconnectCross(b *testing.B) {
	eng := sim.NewEngine()
	topo := bus.Topology{Buses: 2, BoardsPerBus: 2}
	h := bus.NewHierarchy(eng, topo, 256)
	for id := 0; id < 4; id++ {
		h.Attach(monitor.New(id, 1024, 256, 128, nil))
	}
	// Board 2 (segment 1) reads every page first: its table entries go
	// Shared and the filter records segment 1's presence, so every later
	// transaction from board 0 must cross the link.
	eng.Spawn("warm", func(p *sim.Process) {
		for i := 0; i < 1024; i++ {
			h.Do(p, bus.Transaction{
				Op: bus.ReadShared, PAddr: uint32(i * 256), Requester: 2, Bytes: 256,
			})
		}
	})
	eng.Run()
	b.ReportAllocs()
	b.ResetTimer()
	eng.Spawn("bench", func(p *sim.Process) {
		for i := 0; i < b.N; i++ {
			h.Do(p, bus.Transaction{
				Op:        bus.ReadShared,
				PAddr:     uint32((i % 1024) * 256),
				Requester: 0,
				Bytes:     256,
			})
		}
	})
	eng.Run()
}
