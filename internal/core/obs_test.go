package core

import (
	"bytes"
	"encoding/json"
	"fmt"
	"strings"
	"sync"
	"testing"

	"vmp/internal/bus"
	"vmp/internal/cache"
	"vmp/internal/fault"
	"vmp/internal/obs"
)

// The bus/obs op-name correspondence needs no pinning test any more:
// bus.Op is an alias for busop.Op and obs.ArgName renders through
// busop.Op.String(), so both sides read the one table in internal/busop
// and a new Op without a name fails to compile there.

// obsWorkload drives a deterministic contended workload: both boards
// share ASID 1 and ping-pong loads and stores over a small set of
// pages, producing misses, upgrades, invalidations, downgrades,
// write-backs and retries — every event kind except violations.
func obsWorkload(t testing.TB, m *Machine, refsPerBoard int) {
	t.Helper()
	const base, pages = 0x4000, 8
	ps := uint32(m.Config().Cache.PageSize)
	if err := m.EnsureSpace(1); err != nil {
		t.Fatal(err)
	}
	addrs := make([]uint32, pages)
	for i := range addrs {
		addrs[i] = base + uint32(i)*ps
	}
	if err := m.Prefault(1, addrs); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < len(m.Boards); i++ {
		i := i
		m.RunProgram(i, func(c *CPU) {
			c.SetASID(1)
			for k := 0; k < refsPerBoard; k++ {
				a := addrs[(k*7+i*3)%pages]
				if k%3 == 0 {
					c.Store(a, uint32(k))
				} else {
					_ = c.Load(a)
				}
				c.Compute(2)
			}
		})
	}
	m.Run()
}

// runStream builds a 2-board machine with the full event stream
// retained, runs the contended workload, and returns the encoded
// stream plus its digest.
func runStream(t testing.TB, seed uint64) ([]byte, uint64) {
	t.Helper()
	m, err := NewMachine(Config{
		Processors: 2,
		Cache:      cache.Geometry(8<<10, 256, 2), // small: force evictions
		MemorySize: 4 << 20,
		Obs:        &obs.Config{Stream: true},
	})
	if err != nil {
		t.Fatal(err)
	}
	_ = seed // the workload is fully deterministic; seed reserved for variants
	obsWorkload(t, m, 1500)
	if v := m.CheckInvariants(); len(v) != 0 {
		t.Fatalf("invariants: %v", v)
	}
	var buf bytes.Buffer
	if err := obs.Encode(&buf, m.Sink().Stream()); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes(), m.Sink().Digest()
}

// TestSerialParallelStreamsIdentical proves the tentpole determinism
// property: the same run produces a byte-identical event stream whether
// executed alone or concurrently with identical runs on other
// goroutines (sinks are engine-confined; nothing is shared).
func TestSerialParallelStreamsIdentical(t *testing.T) {
	want, wantDigest := runStream(t, 11)
	if len(want) == 0 {
		t.Fatal("reference run produced no events")
	}

	const workers = 4
	streams := make([][]byte, workers)
	digests := make([]uint64, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			streams[w], digests[w] = runStream(t, 11)
		}()
	}
	wg.Wait()
	for w := 0; w < workers; w++ {
		if !bytes.Equal(streams[w], want) {
			t.Errorf("parallel run %d: stream differs from serial run (%d vs %d bytes)",
				w, len(streams[w]), len(want))
		}
		if digests[w] != wantDigest {
			t.Errorf("parallel run %d: digest %016x, want %016x", w, digests[w], wantDigest)
		}
	}
}

// TestPhaseHistogramsPopulated checks the event stream actually carries
// the miss-handler decomposition: a contended run must populate the
// phase histograms and attribute hot-page traffic.
func TestPhaseHistogramsPopulated(t *testing.T) {
	m, err := NewMachine(Config{
		Processors: 2,
		Cache:      cache.Geometry(8<<10, 256, 2),
		MemorySize: 4 << 20,
		Obs:        &obs.Config{},
	})
	if err != nil {
		t.Fatal(err)
	}
	obsWorkload(t, m, 1500)
	if v := m.CheckInvariants(); len(v) != 0 {
		t.Fatalf("invariants: %v", v)
	}
	sink := m.Sink()
	for _, p := range []obs.Phase{obs.PhaseMiss, obs.PhaseTrap, obs.PhaseTranslate,
		obs.PhaseVictim, obs.PhaseCopy, obs.PhaseEpilogue, obs.PhaseUpgrade} {
		if sink.PhaseHist(p).Count() == 0 {
			t.Errorf("phase %v: no samples in a contended run", p)
		}
	}
	if hot := sink.HotPages(1); len(hot) == 0 || hot[0].Traffic == 0 {
		t.Error("no hot-page attribution in a contended run")
	}
	if sink.Total() == 0 {
		t.Error("sink recorded no events")
	}
}

// TestViolationHookDumpsFlightRecorder proves the auto-dump path: the
// moment the watchdog records a protocol violation, the machine emits a
// KindViolation event and dumps the ring to the configured writer.
// Every machine has the watchdog, so the hook fires with or without
// Config.Watchdog.
func TestViolationHookDumpsFlightRecorder(t *testing.T) {
	for _, on := range []bool{false, true} {
		t.Run(fmt.Sprintf("Watchdog=%v", on), func(t *testing.T) { violationHookDumps(t, on) })
	}
}

func violationHookDumps(t *testing.T, watchdog bool) {
	var dump bytes.Buffer
	m, err := NewMachine(Config{
		Processors: 2,
		Cache:      cache.Geometry(8<<10, 256, 2),
		MemorySize: 4 << 20,
		Watchdog:   watchdog,
		Obs:        &obs.Config{RingSize: 64, DumpTo: &dump},
	})
	if err != nil {
		t.Fatal(err)
	}
	// Seed the ring so the dump has context to show.
	m.Sink().Emit(obs.Event{Time: 100, Kind: obs.KindBus, PAddr: 0x1000})

	// A write-back by a board the shadow never granted ownership is a
	// genuine protocol violation, fed through the watchdog's public
	// observation surface exactly as the bus observer would.
	m.watch.OnTransaction(
		bus.Transaction{Op: bus.WriteBack, PAddr: 0x1000, Requester: 0, Bytes: 256},
		bus.Result{})

	if !m.Sink().Dumped() {
		t.Fatal("violation did not trigger AutoDump")
	}
	out := dump.String()
	if !strings.Contains(out, "FLIGHT RECORDER DUMP: protocol violation") {
		t.Errorf("dump header missing violation reason:\n%s", out)
	}
	if !strings.Contains(out, "paddr=0x00001000") {
		t.Errorf("dump does not show the preceding ring contents:\n%s", out)
	}
	ring := m.Sink().Ring()
	if len(ring) == 0 || ring[len(ring)-1].Kind != obs.KindViolation {
		t.Error("violation did not append a KindViolation event to the ring")
	}
}

// TestLivelockDumpsBeforePanic proves the retry hard limit dumps the
// flight recorder before panicking, so the transactions leading up to
// the livelock are on record.
func TestLivelockDumpsBeforePanic(t *testing.T) {
	var dump bytes.Buffer
	m, err := NewMachine(Config{
		Processors: 1,
		Cache:      cache.Geometry(8<<10, 256, 2),
		MemorySize: 4 << 20,
		Obs:        &obs.Config{DumpTo: &dump},
	})
	if err != nil {
		t.Fatal(err)
	}
	m.Sink().Emit(obs.Event{Time: 7, Kind: obs.KindBus})
	defer func() {
		if recover() == nil {
			t.Fatal("hard limit did not panic")
		}
		if !strings.Contains(dump.String(), "FLIGHT RECORDER DUMP: livelock") {
			t.Errorf("no flight-recorder dump before the livelock panic:\n%s", dump.String())
		}
	}()
	m.Boards[0].noteRetry(m.Config().Retry.HardLimit)
}

// TestTraceExportDeterministicAndValid runs the same machine twice and
// requires byte-identical Perfetto documents that parse as JSON — the
// export path analogue of the stream byte-identity test.
func TestTraceExportDeterministicAndValid(t *testing.T) {
	export := func() []byte {
		m, err := NewMachine(Config{
			Processors: 2,
			Cache:      cache.Geometry(8<<10, 256, 2),
			MemorySize: 4 << 20,
			Obs:        &obs.Config{Stream: true},
		})
		if err != nil {
			t.Fatal(err)
		}
		obsWorkload(t, m, 800)
		var buf bytes.Buffer
		if err := obs.WriteTrace(&buf, m.Sink().Stream()); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	a, b := export(), export()
	if !bytes.Equal(a, b) {
		t.Error("identical runs exported different Perfetto documents")
	}
	if !json.Valid(a) {
		t.Error("exported trace is not valid JSON")
	}
}

// TestTraceExportValidUnderFaultClasses is the fuzz-ish exporter test:
// under every fault class (and all of them at once) the run must still
// produce a well-formed Perfetto document — aborted, spurious,
// storm-duplicated and transfer-errored events included.
func TestTraceExportValidUnderFaultClasses(t *testing.T) {
	classes := []string{
		"abort=0.05",
		"copy=0.03",
		"fifo=2,storm=0.1",
		"flip=0.02",
		"abort=0.03,copy=0.02,fifo=4,storm=0.05,flip=0.01",
	}
	for _, class := range classes {
		class := class
		t.Run(class, func(t *testing.T) {
			spec, err := fault.Parse(class)
			if err != nil {
				t.Fatal(err)
			}
			m, err := NewMachine(Config{
				Processors: 2,
				Cache:      cache.Geometry(8<<10, 256, 2),
				MemorySize: 4 << 20,
				Faults:     spec,
				FaultSeed:  23,
				Obs:        &obs.Config{Stream: true},
			})
			if err != nil {
				t.Fatal(err)
			}
			obsWorkload(t, m, 1000)
			var buf bytes.Buffer
			if err := obs.WriteTrace(&buf, m.Sink().Stream()); err != nil {
				t.Fatal(err)
			}
			if !json.Valid(buf.Bytes()) {
				t.Fatalf("fault class %q produced invalid trace JSON (%d bytes)", class, buf.Len())
			}
			if m.Sink().Total() == 0 {
				t.Error("faulted run emitted no events")
			}
		})
	}
}

// TestSinkOnByDefault: a machine built without Config.Obs has one
// sink, a ring of obs.DefaultRingSize events shared by every board, and
// a contended run shows the bus, the miss handler, the monitors and the
// copiers all emitting into it.
func TestSinkOnByDefault(t *testing.T) {
	m := newTestMachine(t, 2)
	sink := m.Sink()
	for _, b := range m.Boards {
		if b.sink != sink {
			t.Errorf("board %d does not share the machine's sink", b.ID)
		}
	}
	obsWorkload(t, m, 1500)
	checkClean(t, m)
	ring := sink.Ring()
	if sink.Total() <= obs.DefaultRingSize || len(ring) != obs.DefaultRingSize {
		t.Fatalf("ring holds %d of %d events, want the newest %d", len(ring), sink.Total(), obs.DefaultRingSize)
	}
	seen := make(map[obs.Kind]bool)
	for _, e := range ring {
		seen[e.Kind] = true
	}
	for _, k := range []obs.Kind{obs.KindBus, obs.KindPhase, obs.KindIntr, obs.KindCopy} {
		if !seen[k] {
			t.Errorf("no %v event among the newest %d of a contended run", k, len(ring))
		}
	}
}

// TestNestedMissFlagged checks page-table fills are marked FlagNested
// so phase analysis can separate them from top-level misses, and pins
// what else a nested miss does differently: it stays out of the
// miss-latency histogram and emits no phase span but its PhaseMiss.
func TestNestedMissFlagged(t *testing.T) {
	m, err := NewMachine(Config{
		Processors: 1,
		Cache:      cache.Geometry(8<<10, 256, 2),
		MemorySize: 4 << 20,
		Obs:        &obs.Config{Stream: true},
	})
	if err != nil {
		t.Fatal(err)
	}
	obsWorkload(t, m, 600)
	var nested, top, traps int
	for _, e := range m.Sink().Stream() {
		if e.Kind != obs.KindPhase {
			continue
		}
		switch {
		case obs.Phase(e.Arg) == obs.PhaseMiss && e.Flags&obs.FlagNested != 0:
			nested++
		case obs.Phase(e.Arg) == obs.PhaseMiss:
			top++
		case obs.Phase(e.Arg) == obs.PhaseTrap:
			traps++
		}
	}
	if nested == 0 {
		t.Fatal("workload took no nested page-table miss")
	}
	if got := m.Boards[0].MissLatency().Count(); got != uint64(top) {
		t.Errorf("miss-latency histogram has %d samples, want one per top-level miss (%d)", got, top)
	}
	if traps != top {
		t.Errorf("%d trap spans for %d top-level misses; a nested miss must emit none", traps, top)
	}
}

// TestMissCostNoteFormat pins the digest rendering used by the misscost
// experiment note (CI diffs it across serial and parallel vmpbench
// runs, so the format itself is part of the byte-identity proof).
func TestMissCostNoteFormat(t *testing.T) {
	s := obs.NewSink(obs.Config{Stream: true}, nil)
	s.Emit(obs.Event{Time: 1, Kind: obs.KindBus})
	note := fmt.Sprintf("digest %016x", s.Digest())
	if len(note) != len("digest ")+16 {
		t.Errorf("digest note %q is not fixed-width", note)
	}
}
