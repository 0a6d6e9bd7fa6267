package core

import (
	"context"
	"fmt"
	"sort"

	"vmp/internal/bus"
	"vmp/internal/cache"
	"vmp/internal/check"
	"vmp/internal/fault"
	"vmp/internal/memory"
	"vmp/internal/monitor"
	"vmp/internal/obs"
	"vmp/internal/protocol"
	"vmp/internal/sim"
	"vmp/internal/stats"
	"vmp/internal/trace"
	"vmp/internal/vm"
)

// Config describes a VMP machine.
type Config struct {
	// Processors is the number of processor boards on the bus.
	Processors int
	// Cache is the per-board cache geometry. Its page size is also the
	// machine's cache-page frame size.
	Cache cache.Config
	// MemorySize is the shared main-memory size in bytes (the prototype
	// allows up to 8 MB).
	MemorySize int
	// FIFODepth is the bus-monitor FIFO capacity (0 = the prototype's
	// 128).
	FIFODepth int
	// Timing holds processor-side latencies (zero value = defaults).
	Timing Timing
	// BusTiming overrides bus latencies when non-zero.
	BusTiming bus.Timing
	// Topology selects the interconnect shape: the zero value (or any
	// Buses <= 1) is the classic single shared VMEbus; Buses > 1 builds
	// the hierarchical multi-bus interconnect (local bus segments joined
	// by an inclusion-filtered inter-bus link, see bus.Hierarchy).
	Topology bus.Topology
	// Protocol names the coherence protocol from the internal/protocol
	// registry ("" = the default 2-state "vmp2").
	Protocol string
	// Faults, when non-nil and enabled, attaches the deterministic
	// fault-injection layer (see internal/fault).
	Faults *fault.Spec
	// FaultSeed seeds the fault plan; the same (spec, seed) pair
	// reproduces the same fault sequence.
	FaultSeed uint64
	// Watchdog registers the protocol invariant watchdog's counters
	// ("check/..." names) in the machine's recorder, so they appear in
	// run summaries. The watchdog (internal/check) checks every machine
	// whether or not this is set. It is implied by an enabled fault spec.
	Watchdog bool
	// Obs configures the machine's observability sink (internal/obs):
	// flight recorder, per-phase latency histograms, hot-page
	// attribution, and (with Obs.Stream) the full event stream for
	// Perfetto export. Nil selects the default: a ring of
	// obs.DefaultRingSize events, dumped to stderr.
	Obs *obs.Config
	// Retry bounds the protocol retry loops (zero value = defaults).
	Retry RetryPolicy
}

// ConfigError is a typed rejection from Config.Validate: which field is
// invalid and why. Callers (the CLIs, the scenario layer) can test for
// it with errors.As to distinguish a bad configuration from a runtime
// failure.
type ConfigError struct {
	Field  string // the offending Config field, e.g. "Cache.PageSize"
	Reason string
}

// Error implements error.
func (e *ConfigError) Error() string {
	return fmt.Sprintf("core: invalid config: %s: %s", e.Field, e.Reason)
}

// Validate rejects unusable machine geometry with typed errors. It is
// the single validation point shared by NewMachine and the scenario
// layer; it expects a default-filled config (FillDefaults leaves any
// explicitly set field untouched), so zero values that mean "use the
// default" have already been resolved.
func (c Config) Validate() error {
	if c.Processors < 1 {
		return &ConfigError{"Processors", fmt.Sprintf("%d processors; need at least 1", c.Processors)}
	}
	if c.Cache.PageSize <= 0 || c.Cache.PageSize&(c.Cache.PageSize-1) != 0 {
		return &ConfigError{"Cache.PageSize", fmt.Sprintf("page size %d not a positive power of two", c.Cache.PageSize)}
	}
	if c.Cache.Rows <= 0 || c.Cache.Rows&(c.Cache.Rows-1) != 0 {
		return &ConfigError{"Cache.Rows", fmt.Sprintf("rows %d not a positive power of two", c.Cache.Rows)}
	}
	if c.Cache.Assoc < 1 {
		return &ConfigError{"Cache.Assoc", fmt.Sprintf("%d ways; need at least 1", c.Cache.Assoc)}
	}
	if c.MemorySize <= 0 {
		return &ConfigError{"MemorySize", fmt.Sprintf("memory size %d not positive", c.MemorySize)}
	}
	if c.MemorySize%vm.PageSize != 0 {
		return &ConfigError{"MemorySize", fmt.Sprintf("memory size %d not a multiple of the VM page size %d", c.MemorySize, vm.PageSize)}
	}
	if c.FIFODepth < 1 {
		return &ConfigError{"FIFODepth", fmt.Sprintf("FIFO depth %d; need at least 1", c.FIFODepth)}
	}
	if _, err := protocol.Get(c.Protocol); err != nil {
		return &ConfigError{"Protocol", err.Error()}
	}
	if err := c.Topology.Validate(c.Processors); err != nil {
		return &ConfigError{"Topology", err.Error()}
	}
	return nil
}

func (c *Config) FillDefaults() {
	if c.Processors <= 0 {
		c.Processors = 1
	}
	if c.Cache.PageSize == 0 {
		c.Cache = cache.Geometry(128<<10, 256, 4)
	}
	if c.MemorySize == 0 {
		c.MemorySize = 8 << 20
	}
	if c.FIFODepth == 0 {
		c.FIFODepth = monitor.DefaultFIFODepth
	}
	if c.Timing == (Timing{}) {
		c.Timing = DefaultTiming()
	}
	if c.Retry == (RetryPolicy{}) {
		c.Retry = DefaultRetryPolicy()
	}
	if c.Protocol == "" {
		c.Protocol = protocol.DefaultName
	}
	if c.Faults != nil && c.Faults.Enabled() {
		c.Watchdog = true
	}
	if c.Topology.Buses <= 0 {
		c.Topology.Buses = 1
	}
	if c.Topology.Buses > 1 && c.Topology.BoardsPerBus <= 0 {
		c.Topology.BoardsPerBus = (c.Processors + c.Topology.Buses - 1) / c.Topology.Buses
	}
}

// Machine is a configured VMP multiprocessor.
type Machine struct {
	Eng    *sim.Engine
	Bus    bus.Interconnect
	Mem    *memory.Memory
	VM     *vm.VM
	Boards []*Board

	cfg      Config
	proto    protocol.Protocol
	inj      *fault.Injector
	watch    *check.Watchdog
	sink     *obs.Sink
	starve   uint64 // starvation events, "check/starvation-events"
	draining bool

	activeDrivers int
	finishTimes   map[int]sim.Time
}

// NewMachine builds the machine: engine, bus, memory, VM, the
// observability sink, and one board (cache + monitor + copier) per
// processor.
func NewMachine(cfg Config) (*Machine, error) {
	cfg.FillDefaults()
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	proto, err := protocol.Get(cfg.Protocol)
	if err != nil {
		return nil, err
	}
	eng := sim.NewEngine()
	// Every CPU's next reference is due one reference time ahead, so
	// those events take the engine's tick lane.
	eng.SetTick(cfg.Timing.RefTime())
	mem := memory.New(cfg.MemorySize, cfg.Cache.PageSize)
	ic := bus.NewHierarchy(eng, cfg.Topology, cfg.Cache.PageSize)
	m := &Machine{
		Eng:         eng,
		Bus:         ic,
		Mem:         mem,
		VM:          vm.New(mem),
		cfg:         cfg,
		proto:       proto,
		finishTimes: make(map[int]sim.Time),
	}
	if cfg.BusTiming != (bus.Timing{}) {
		ic.SetTiming(cfg.BusTiming)
	}
	var oc obs.Config
	if cfg.Obs != nil {
		oc = *cfg.Obs
	}
	m.sink = obs.NewSink(oc, eng.Now)
	ic.SetSink(m.sink)
	stats.Register(eng.Recorder(), "check/starvation-events", &m.starve)
	for i := 0; i < cfg.Processors; i++ {
		m.Boards = append(m.Boards, newBoard(m, i))
	}
	if cfg.Faults != nil && cfg.Faults.Enabled() {
		m.inj = fault.NewInjector(*cfg.Faults, cfg.FaultSeed, eng.Recorder())
		ic.SetInjector(m.inj)
		for _, b := range m.Boards {
			if cap := m.inj.FIFOCap(); cap > 0 {
				b.Mon.SetDepthLimit(cap)
			}
			if m.inj.Spec().StormRate > 0 {
				b.Mon.SetInjector(m.inj)
			}
		}
	}
	// Every machine has the watchdog; Config.Watchdog only decides
	// whether its counters are registered (a nil recorder drops them).
	var wrec *stats.Recorder
	if cfg.Watchdog {
		wrec = eng.Recorder()
	}
	m.watch = check.New(wrec, cfg.Cache.PageSize)
	m.watch.SetOracle(m.proto.Oracle())
	m.watch.SetExpectCorruption(m.inj != nil && m.inj.Spec().FlipRate > 0)
	for _, b := range m.Boards {
		m.watch.Attach(boardView{b})
	}
	// Dump the flight recorder the moment the first violation is
	// recorded, while the events leading up to it are still in the
	// ring (AutoDump is once-only; later violations are no-ops).
	m.watch.SetViolationHook(func(msg string) {
		m.sink.Emit(obs.Event{Time: m.sink.Now(), Kind: obs.KindViolation})
		m.sink.AutoDump("protocol violation: " + msg)
	})
	ic.SetObserver(m.observeBus)
	return m, nil
}

// observeBus runs after every bus transaction's effects, while the bus
// is still held: the watchdog records the transaction into its shadow,
// then the fault layer may corrupt an action-table entry for the
// transaction's frame.
func (m *Machine) observeBus(tx bus.Transaction, res bus.Result) {
	m.watch.OnTransaction(tx, res)
	if m.inj != nil && tx.Op.ConsistencyRelated() {
		m.injectFlip(tx)
	}
}

// injectFlip applies one action-table bit flip decided by the fault
// plan. Only entries currently at Ignore are corrupted (producing a
// phantom Shared or Private entry the protocol detects and heals);
// flipping a live Shared entry would make a board miss a future
// invalidation, flipping a Private entry would permit a double grant,
// and flipping a Notify entry would lose a wakeup — all fatal by
// design, so never injected. The in-flight requester is excluded: its
// entry for this frame was just written and its local tables lag until
// its coroutine resumes.
func (m *Machine) injectFlip(tx bus.Transaction) {
	board, bit, ok := m.inj.TableFlip(len(m.Boards))
	if !ok {
		return
	}
	b := m.Boards[board]
	if board == tx.Requester || b.Mon.Action(tx.PAddr) != monitor.Ignore {
		m.inj.FlipSkipped()
		return
	}
	corrupted := monitor.Shared // bit 0
	if bit == 1 {
		corrupted = monitor.Private
	}
	b.Mon.SetAction(tx.PAddr, corrupted)
	m.inj.FlipApplied()
}

// boardView adapts a Board to the watchdog's quiescent-inspection
// interface.
type boardView struct{ b *Board }

func (v boardView) ID() int { return v.b.ID }

func (v boardView) Hold(frame uint32) check.Hold {
	fi := v.b.frames[frame]
	if fi == nil {
		return check.HoldNone
	}
	if fi.state == psPrivate {
		return check.HoldPrivate
	}
	return check.HoldShared
}

func (v boardView) Protected(frame uint32) bool { return v.b.protected[frame] }

func (v boardView) Action(frame uint32) monitor.Action {
	return v.b.Mon.Action(v.b.frameAddr(frame))
}

func (v boardView) RepairAction(frame uint32, a monitor.Action) {
	v.b.Mon.SetAction(v.b.frameAddr(frame), a)
}

func (v boardView) ForEachEntry(fn func(frame uint32, act monitor.Action)) {
	v.b.Mon.ForEach(fn)
}

func (v boardView) ForEachHeld(fn func(frame uint32, h check.Hold)) {
	frames := make([]uint32, 0, len(v.b.frames))
	for f := range v.b.frames {
		frames = append(frames, f)
	}
	sort.Slice(frames, func(i, j int) bool { return frames[i] < frames[j] })
	for _, f := range frames {
		fn(f, v.Hold(f))
	}
}

// Config returns the (default-filled) machine configuration.
func (m *Machine) Config() Config { return m.cfg }

// Sink returns the machine's observability sink; it is never nil.
func (m *Machine) Sink() *obs.Sink { return m.sink }

// EnsureSpace creates the address space if it does not exist yet.
func (m *Machine) EnsureSpace(asid uint8) error {
	for _, a := range m.VM.Spaces() {
		if a == asid {
			return nil
		}
	}
	return m.VM.CreateSpace(asid)
}

// Prefault maps the page containing each address (demand-zero, no
// simulated time), so steady-state experiments do not measure cold page
// faults.
func (m *Machine) Prefault(asid uint8, vaddrs []uint32) error {
	if err := m.EnsureSpace(asid); err != nil {
		return err
	}
	for _, va := range vaddrs {
		super := va >= vm.KernelBase
		if _, err := m.VM.Translate(asid, va, false, super); err == nil {
			continue
		}
		if _, err := m.VM.HandleFault(asid, va, false, super, vm.DefaultPolicy); err != nil {
			return err
		}
	}
	return nil
}

// PrefaultTrace maps every page a trace touches, in first-touch order.
func (m *Machine) PrefaultTrace(refs []trace.Ref) error {
	seen := make(map[uint64]bool)
	// recent holds page keys already seen, indexed by their low bits, so
	// that most references skip the map lookup. ^0 is no page key (an
	// ASID has 8 bits).
	var recent [64]uint64
	for i := range recent {
		recent[i] = ^uint64(0)
	}
	for _, r := range refs {
		key := uint64(r.ASID)<<32 | uint64(r.VAddr/vm.PageSize)
		slot := &recent[key%uint64(len(recent))]
		if *slot == key {
			continue
		}
		*slot = key
		if seen[key] {
			continue
		}
		seen[key] = true
		if err := m.Prefault(r.ASID, []uint32{r.VAddr}); err != nil {
			return err
		}
	}
	return nil
}

// RunTrace attaches a trace-driven CPU to a board. Every reference
// costs the average inter-reference CPU time plus any miss handling.
// Protection faults are counted and skipped (a trace cannot respond to
// them). The driver must be attached before Run.
func (m *Machine) RunTrace(boardID int, src trace.Source) {
	c := &traceCPU{m: m, b: m.Boards[boardID], src: src, refTime: m.cfg.Timing.RefTime()}
	c.tickFn = c.tick
	m.activeDrivers++
	m.Eng.Spawn(fmt.Sprintf("cpu%d", boardID), c.run)
}

// traceCPU is a trace-driven processor. In VMP the cache hardware
// serves a hit at processor speed and only a miss traps into software
// (Section 2), and the driver splits the same way. A tick event issues
// each reference at its time and serves it alone when it hits; the
// CPU's process runs, resumed inside the tick, only for a reference
// that needs the handler (a miss, an upgrade, a protection fault or a
// waiting interrupt word) and at the end of the stream. Each tick
// takes the place of the step event a Delay would have scheduled, at
// the same time and sequence number, so the event order is the same
// as a process issuing every reference itself.
type traceCPU struct {
	m       *Machine
	b       *Board
	src     trace.Source
	p       *sim.Process
	refTime sim.Time
	tickFn  func()

	// ref is the reference the pending tick issues. slow, res and
	// looked are what the tick leaves the process: whether the
	// reference needs finishing, and the lookup it made.
	ref    trace.Ref
	slow   bool
	res    cache.Result
	looked bool
}

// run is the CPU's process body. It fetches the first reference, then
// stays paused while ticks serve hits, finishing each reference a tick
// hands over.
func (c *traceCPU) run(p *sim.Process) {
	c.p = p
	for c.advance() {
		p.Pause()
		if !c.slow {
			break // the stream ended on a hit
		}
		acc := cache.Access{Write: c.ref.IsWrite(), Super: c.ref.Super}
		// finishAccess returns an error only for protection faults,
		// which are already counted in the board stats.
		_ = c.b.finishAccess(p, c.ref.ASID, c.ref.VAddr, acc, c.res, c.looked)
	}
	c.m.driverDone(c.b.ID, p)
	c.b.IdleLoop(p)
}

// advance fetches the next reference and schedules its tick one
// reference time from now. It reports false at the end of the stream.
//
//vmplint:hotpath
func (c *traceCPU) advance() bool {
	ref, ok := c.src.Next()
	if !ok {
		return false
	}
	c.ref = ref
	c.m.Eng.Schedule(c.refTime, c.tickFn)
	return true
}

// tick issues the pending reference. A hit is done here, and the next
// reference is fetched at once; anything else resumes the process.
//
//vmplint:hotpath
func (c *traceCPU) tick() {
	acc := cache.Access{Write: c.ref.IsWrite(), Super: c.ref.Super}
	c.res, c.looked = c.b.beginAccess(c.ref.ASID, c.ref.VAddr, acc)
	c.slow = !c.looked || c.res != cache.Hit
	if c.slow || !c.advance() {
		c.p.Resume()
	}
}

// RunProgram attaches a program-driven CPU to a board (see CPU).
func (m *Machine) RunProgram(boardID int, prog func(c *CPU)) {
	b := m.Boards[boardID]
	m.activeDrivers++
	m.Eng.Spawn(fmt.Sprintf("cpu%d", boardID), func(p *sim.Process) {
		prog(&CPU{p: p, b: b})
		m.driverDone(boardID, p)
		b.IdleLoop(p)
	})
}

func (m *Machine) driverDone(boardID int, p *sim.Process) {
	m.finishTimes[boardID] = p.Now()
	m.activeDrivers--
	if m.activeDrivers == 0 {
		m.draining = true
		for _, b := range m.Boards {
			b.intrSig.Broadcast()
		}
	}
}

// Run executes the simulation until all drivers finish and every bus
// monitor FIFO is drained, then returns the final simulated time.
func (m *Machine) Run() sim.Time {
	t, _ := m.RunCtx(context.Background())
	return t
}

// cancelCheckEvery is how many fired events pass between polls of the
// run context in RunCtx. Polling is cheap (one closure call) but not
// free; at thousands of events per simulated microsecond this bounds
// cancellation latency to well under a wall-clock millisecond.
const cancelCheckEvery = 4096

// RunCtx is Run with a cancellation context. A context that is
// cancelled (or whose deadline passes) stops the event loop promptly,
// unwinds every live process coroutine so no goroutines leak, and
// returns the context's error; the machine's simulated state is
// abandoned mid-flight and must not be summarized. A context that
// never fires leaves the run byte-identical to plain Run: the cancel
// probe observes the simulation but never influences it. A finished
// run ends the boards' paused block copiers the same way, so no
// coroutine outlives RunCtx; a later run spawns them afresh.
func (m *Machine) RunCtx(ctx context.Context) (sim.Time, error) {
	cancellable := ctx != nil && ctx.Done() != nil
	if cancellable {
		m.Eng.SetCancelCheck(cancelCheckEvery, func() bool { return ctx.Err() != nil })
		defer m.Eng.SetCancelCheck(0, nil)
	}
	m.Eng.Run()
	if cancellable && ctx.Err() != nil {
		m.Eng.KillProcesses()
		return m.Eng.Now(), ctx.Err()
	}
	// Final drain: the last transactions may have posted words to
	// boards whose idle loops had already exited.
	for pass := 0; pass < 4 && m.pendingWords(); pass++ {
		for _, b := range m.Boards {
			b := b
			m.Eng.Spawn(fmt.Sprintf("drain%d", b.ID), func(p *sim.Process) {
				b.ServiceInterrupts(p)
			})
		}
		m.Eng.Run()
		if cancellable && ctx.Err() != nil {
			m.Eng.KillProcesses()
			return m.Eng.Now(), ctx.Err()
		}
	}
	m.Eng.KillProcesses()
	return m.Eng.Now(), nil
}

func (m *Machine) pendingWords() bool {
	for _, b := range m.Boards {
		if b.Mon.Pending() > 0 || b.Mon.Dropped() {
			return true
		}
	}
	return false
}

// FinishTime returns the simulated time at which a board's driver
// completed its workload.
func (m *Machine) FinishTime(boardID int) sim.Time { return m.finishTimes[boardID] }

// Performance returns a board's normalized processor performance: the
// CPU time its references would take with no misses, divided by the
// elapsed time its driver actually took (the paper's Figure 3 metric).
func (m *Machine) Performance(boardID int) float64 {
	b := m.Boards[boardID]
	elapsed := m.finishTimes[boardID]
	if elapsed == 0 {
		return 0
	}
	ideal := sim.Time(b.Stats().Refs) * m.cfg.Timing.RefTime()
	return float64(ideal) / float64(elapsed)
}

// CheckInvariants verifies the protocol oracle and the consistency of
// every board's local tables with its cache and monitor. It must be
// called at a quiescent point (after Run). It returns all violations.
func (m *Machine) CheckInvariants() []string {
	out := m.checkInvariants()
	if len(out) > 0 {
		// Post-run violations (quiescent sweeps, local-table checks) have
		// no mid-run hook; dump the flight recorder now if the watchdog
		// hook has not already done so.
		m.sink.AutoDump("post-run invariant check failed: " + out[0])
	}
	return out
}

func (m *Machine) checkInvariants() []string {
	// The watchdog's quiescent sweep runs first: it repairs injected
	// table corruption (counting each detection) so the strict
	// per-board checks below see a sane table, and records genuine
	// protocol violations.
	m.watch.FinalSweep()
	out := append([]string(nil), m.watch.Violations()...)
	quiescent := !m.pendingWords()
	for _, b := range m.Boards {
		out = append(out, m.checkBoard(b, quiescent)...)
	}
	return out
}

// checkBoard verifies one board's local tables against its cache. When
// quiescent (every FIFO drained), it also probes the other boards'
// tables: no other board may hold a frame this board holds privately.
// A shared copy kept past its invalidation, with its Shared entry,
// breaks that without the bus seeing it; mid-run the invalidation
// words may legally still be in flight.
func (m *Machine) checkBoard(b *Board, quiescent bool) []string {
	var out []string
	// Every valid cache slot must be recorded under its frame.
	slotSeen := make(map[cache.SlotID]uint32)
	frames := make([]uint32, 0, len(b.frames))
	for f := range b.frames {
		frames = append(frames, f)
	}
	sort.Slice(frames, func(i, j int) bool { return frames[i] < frames[j] })
	for _, f := range frames {
		fi := b.frames[f]
		if len(fi.slots) == 0 {
			out = append(out, fmt.Sprintf("board %d: empty frame record %d", b.ID, f))
		}
		if fi.state == psPrivate && len(fi.slots) != 1 {
			out = append(out, fmt.Sprintf("board %d: private frame %d with %d slots", b.ID, f, len(fi.slots)))
		}
		for _, s := range fi.slots {
			slotSeen[s] = f
			st := b.Cache.SlotState(s)
			if !st.Flags.Has(cache.Valid) {
				out = append(out, fmt.Sprintf("board %d: frame %d lists invalid slot %d", b.ID, f, s))
			}
			if fi.state == psPrivate && !st.Flags.Has(cache.Exclusive) {
				out = append(out, fmt.Sprintf("board %d: private frame %d slot %d lacks Exclusive", b.ID, f, s))
			}
			if fi.state == psShared && st.Flags.Has(cache.Exclusive) {
				out = append(out, fmt.Sprintf("board %d: shared frame %d slot %d has Exclusive", b.ID, f, s))
			}
			if b.slotFrame[s] != f {
				out = append(out, fmt.Sprintf("board %d: slot %d frame map mismatch", b.ID, s))
			}
		}
		if quiescent && fi.state == psPrivate {
			for _, o := range m.Boards {
				if o != b && o.frames[f] != nil {
					out = append(out, fmt.Sprintf("frame %d owned by board %d but also held by board %d", f, b.ID, o.ID))
				}
			}
		}
	}
	b.Cache.ValidSlots(func(s cache.SlotID, _ cache.Slot) {
		if _, ok := slotSeen[s]; !ok {
			out = append(out, fmt.Sprintf("board %d: valid slot %d not in page map", b.ID, s))
		}
	})
	return out
}

// TotalStats sums the cache statistics across boards.
func (m *Machine) TotalStats() (cache.Stats, BoardStats) {
	var cs cache.Stats
	var bs BoardStats
	for _, b := range m.Boards {
		c := b.Cache.Stats()
		cs.Hits += c.Hits
		cs.Misses += c.Misses
		cs.WriteMisses += c.WriteMisses
		cs.ProtFaults += c.ProtFaults
		cs.Fills += c.Fills
		cs.Invalidates += c.Invalidates
		cs.Downgrades += c.Downgrades
		s := b.Stats()
		bs.Refs += s.Refs
		bs.Retries += s.Retries
		bs.IntrWords += s.IntrWords
		bs.StaleWords += s.StaleWords
		bs.InvalidationsIn += s.InvalidationsIn
		bs.DowngradesIn += s.DowngradesIn
		bs.WriteBacks += s.WriteBacks
		bs.WriteBackRetries += s.WriteBackRetries
		bs.Recoveries += s.Recoveries
		bs.PageFaults += s.PageFaults
		bs.ProtFaults += s.ProtFaults
		bs.SynonymFills += s.SynonymFills
		bs.Violations += s.Violations
		bs.MissTime += s.MissTime
		bs.IntrTime += s.IntrTime
	}
	return cs, bs
}
