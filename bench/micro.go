package main

import (
	"fmt"
	"os"
	"path/filepath"
	"time"

	"vmp/internal/bus"
	"vmp/internal/cache"
	"vmp/internal/core"
	"vmp/internal/monitor"
	"vmp/internal/serve"
	"vmp/internal/sim"
	"vmp/internal/trace"
	gen "vmp/internal/workload"
)

// Each micro calls one layer's public functions in isolation, on the
// workload's own machine configuration and reference stream, and
// returns host ns per operation. A micro whose operations run inside a
// simulated process reports the events it fired; perOp subtracts the
// same number of process handoffs, timed right after it, so that the
// ledger, which charges every event one handoff, counts each nanosecond
// once.

const (
	// microBatch is the host time one timed batch aims at.
	microBatch = 40 * time.Millisecond
	// microReps is how many batches a micro's median is taken over.
	microReps = 5
	// microRefs is how much of the workload's board-0 stream the cache
	// and hit-path micros replay.
	microRefs = 20_000
)

// batch is what one timed batch of a micro measured: host time, the
// operations to charge it to, and the events (process handoffs) fired
// inside it.
type batch struct {
	d      time.Duration
	ops    float64
	events uint64
}

// opFunc runs a batch of about n operations.
type opFunc func(n int) (batch, error)

// perOp sizes a batch to take about microBatch of host time, then
// returns the median over microReps batches of host ns per operation,
// each batch less the handoffs it fired.
func perOp(fn opFunc) (float64, error) {
	n := 256
	for {
		start := time.Now()
		if _, err := fn(n); err != nil {
			return 0, err
		}
		wall := time.Since(start)
		if wall >= microBatch/4 || n >= 1<<26 {
			n = max(1, int(float64(n)*float64(microBatch)/float64(wall)))
			break
		}
		n *= 4
	}
	xs := make([]float64, 0, microReps)
	for i := 0; i < microReps; i++ {
		b, err := fn(n)
		if err != nil {
			return 0, err
		}
		if b.events > 0 {
			h, _ := handoffOp(int(b.events))
			b.d -= h.d
		}
		xs = append(xs, float64(b.d.Nanoseconds())/b.ops)
	}
	return median(xs), nil
}

// handoffOp is one Process.Delay round trip: schedule, switch to the
// engine, fire, switch back.
func handoffOp(n int) (batch, error) {
	eng := sim.NewEngine()
	var d time.Duration
	eng.Spawn("handoff", func(p *sim.Process) {
		start := time.Now()
		for i := 0; i < n; i++ {
			p.Delay(1)
		}
		d = time.Since(start)
	})
	eng.Run()
	return batch{d: d, ops: float64(n)}, nil
}

// scheduleFireOp is one event through the queue with no process switch:
// a push at a scattered deadline and its pop and dispatch.
func scheduleFireOp(n int) (batch, error) {
	eng := sim.NewEngine()
	nop := func() {}
	start := time.Now()
	for i := 0; i < n; i++ {
		eng.Schedule(sim.Time((i*2654435761)%4096), nop)
		if i%1024 == 1023 {
			eng.Run()
		}
	}
	eng.Run()
	return batch{d: time.Since(start), ops: float64(n)}, nil
}

// lookupOp replays the stream through a bare cache of the workload's
// geometry, filling on misses as the miss handler would.
func lookupOp(geo cache.Config, refs []trace.Ref) opFunc {
	return func(n int) (batch, error) {
		c := cache.New(geo)
		start := time.Now()
		for i := 0; i < n; i++ {
			r := refs[i%len(refs)]
			if _, res := c.Lookup(r.ASID, r.VAddr, cache.Access{Write: r.IsWrite(), Super: r.Super}); res == cache.Miss {
				c.Fill(c.SuggestVictim(r.VAddr), r.ASID, r.VAddr, cache.UserRead|cache.UserWrite|cache.SupWrite)
			}
		}
		return batch{d: time.Since(start), ops: float64(n)}, nil
	}
}

// hitOp is Board.Access on a hit: the stream is replayed once to warm
// board 0's cache, then the reads still resident are accessed again.
// A hit switches no process.
func hitOp(cfg core.Config, refs []trace.Ref) opFunc {
	return func(n int) (batch, error) {
		m, err := core.NewMachine(cfg)
		if err != nil {
			return batch{}, err
		}
		if err := m.PrefaultTrace(refs); err != nil {
			return batch{}, err
		}
		b := m.Boards[0]
		var d time.Duration
		var hot []trace.Ref
		m.Eng.Spawn("hits", func(p *sim.Process) {
			for _, r := range refs {
				_ = b.Access(p, r.ASID, r.VAddr, cache.Access{Write: r.IsWrite(), Super: r.Super})
			}
			for _, r := range refs {
				if !r.IsWrite() && b.Resident(r.ASID, r.VAddr) {
					hot = append(hot, r)
				}
			}
			if len(hot) == 0 {
				return
			}
			start := time.Now()
			for i := 0; i < n; i++ {
				r := hot[i%len(hot)]
				_ = b.Access(p, r.ASID, r.VAddr, cache.Access{Super: r.Super})
			}
			d = time.Since(start)
		})
		m.Eng.Run()
		if len(hot) == 0 {
			return batch{}, fmt.Errorf("hit path: no resident reads in the stream")
		}
		return batch{d: d, ops: float64(n)}, nil
	}
}

// missOp is the software miss handler on board 0: reads cycling over
// four times as many cache pages as the cache holds, so that every
// access misses, fills and evicts. It charges the run per fill, less
// the cache lookups, which the ledger counts in their own row.
func missOp(cfg core.Config, lookupNs float64) opFunc {
	return func(n int) (batch, error) {
		m, err := core.NewMachine(cfg)
		if err != nil {
			return batch{}, err
		}
		ps := uint32(cfg.Cache.PageSize)
		vaddrs := make([]uint32, 4*cfg.Cache.Slots())
		for i := range vaddrs {
			vaddrs[i] = gen.UserHeapBase + uint32(i)*ps
		}
		if err := m.Prefault(1, vaddrs); err != nil {
			return batch{}, err
		}
		b := m.Boards[0]
		m.Eng.Spawn("misses", func(p *sim.Process) {
			for i := 0; i < n; i++ {
				_ = b.Access(p, 1, vaddrs[i%len(vaddrs)], cache.Access{})
			}
		})
		start := time.Now()
		m.Eng.Run()
		d := time.Since(start)
		cs := b.Cache.Stats()
		lookups := cs.Hits + cs.Misses + cs.WriteMisses + cs.ProtFaults
		d -= time.Duration(lookupNs * float64(lookups))
		return batch{d: d, ops: float64(cs.Fills), events: m.Eng.Metrics().EventsFired}, nil
	}
}

// interconnect builds the workload's interconnect with one monitor per
// board, as core.NewMachine wires it.
func interconnect(eng *sim.Engine, cfg core.Config) bus.Interconnect {
	var ic bus.Interconnect
	if cfg.Topology.SingleBus() {
		ic = bus.New(eng)
	} else {
		ic = bus.NewHierarchy(eng, cfg.Topology, cfg.Cache.PageSize)
	}
	frames := cfg.MemorySize / cfg.Cache.PageSize
	for id := 0; id < cfg.Processors; id++ {
		ic.Attach(monitor.New(id, frames, cfg.Cache.PageSize, cfg.FIFODepth, nil))
	}
	return ic
}

// txOp is one consistency transaction (a page read-shared) from board 0
// on the workload's interconnect, checked by every attached monitor.
// Board from reads every page first: board 0 itself keeps the timed
// transactions on its own segment, while a board on another segment of
// a hierarchy makes each of them cross the inter-bus link.
func txOp(cfg core.Config, from int) opFunc {
	return func(n int) (batch, error) {
		eng := sim.NewEngine()
		ic := interconnect(eng, cfg)
		ps := cfg.Cache.PageSize
		tx := func(i, board int) bus.Transaction {
			return bus.Transaction{Op: bus.ReadShared, PAddr: uint32((i % 1024) * ps), Requester: board, Bytes: ps}
		}
		eng.Spawn("warm", func(p *sim.Process) {
			for i := 0; i < 1024; i++ {
				ic.Do(p, tx(i, from))
			}
		})
		eng.Run()
		warm := eng.Metrics().EventsFired
		eng.Spawn("tx", func(p *sim.Process) {
			for i := 0; i < n; i++ {
				ic.Do(p, tx(i, 0))
			}
		})
		start := time.Now()
		eng.Run()
		return batch{d: time.Since(start), ops: float64(n), events: eng.Metrics().EventsFired - warm}, nil
	}
}

// checkOp is one monitor's check-window decision on a table with a
// realistic mix of entries.
func checkOp(cfg core.Config) opFunc {
	return func(n int) (batch, error) {
		ps := cfg.Cache.PageSize
		m := monitor.New(1, cfg.MemorySize/ps, ps, cfg.FIFODepth, nil)
		for f := 0; f < 1024; f++ {
			switch f % 4 {
			case 1:
				m.SetAction(uint32(f*ps), monitor.Shared)
			case 2:
				m.SetAction(uint32(f*ps), monitor.Private)
			}
		}
		start := time.Now()
		for i := 0; i < n; i++ {
			m.Check(bus.Transaction{Op: bus.ReadPrivate, PAddr: uint32((i % 1024) * ps), Requester: i % cfg.Processors})
		}
		return batch{d: time.Since(start), ops: float64(n)}, nil
	}
}

// storeGetOp is vmpd's verified read of stored result records: file
// read plus checksum check, the cost of every cache hit.
func storeGetOp(st *serve.Store, fps []string) opFunc {
	return func(n int) (batch, error) {
		start := time.Now()
		for i := 0; i < n; i++ {
			if _, err := st.Get(fps[i%len(fps)]); err != nil {
				return batch{}, err
			}
		}
		return batch{d: time.Since(start), ops: float64(n)}, nil
	}
}

// storeGetNs measures storeGetOp on a scratch store under dir holding
// copies of payload, for workloads that run no daemon of their own.
func storeGetNs(dir string, payload []byte) (float64, error) {
	sd, err := os.MkdirTemp(dir, "store-")
	if err != nil {
		return 0, err
	}
	defer os.RemoveAll(sd)
	st, err := serve.OpenStore(filepath.Join(sd, "store"))
	if err != nil {
		return 0, err
	}
	fps := make([]string, 16)
	for i := range fps {
		fps[i] = fmt.Sprintf("%016x", uint64(i)*2654435761+11)
		if err := st.Put(fps[i], payload); err != nil {
			return 0, err
		}
	}
	return perOp(storeGetOp(st, fps))
}
