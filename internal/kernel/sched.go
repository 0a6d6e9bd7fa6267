package kernel

import (
	"vmp/internal/cache"
	"vmp/internal/core"
	"vmp/internal/sim"
	"vmp/internal/trace"
	"vmp/internal/vm"
)

// Task is one schedulable process: an address space and its reference
// stream, packed (trace.Pack builds one from a slice).
type Task struct {
	ASID uint8
	Refs trace.Packed
}

// SchedPolicy tunes the round-robin scheduler.
type SchedPolicy struct {
	// Quantum is the timeslice per task.
	Quantum sim.Time
	// SwitchInstr is the context-switch software cost in instructions
	// (saving state, picking the next task, writing the ASID register).
	SwitchInstr int
	// FlushOnSwitch empties the cache at every switch — what a
	// virtually addressed cache *without* ASID tags would require
	// (footnote 1 of the paper). Off by default: VMP just writes the
	// ASID register.
	FlushOnSwitch bool
}

// DefaultSchedPolicy returns a 2 ms quantum with a 150-instruction
// switch path.
func DefaultSchedPolicy() SchedPolicy {
	return SchedPolicy{Quantum: 2 * sim.Millisecond, SwitchInstr: 150}
}

// SchedStats reports a completed scheduling run.
type SchedStats struct {
	Switches int
	Elapsed  sim.Time
	Refs     uint64
}

// Schedule attaches a round-robin scheduler to a board, timeslicing the
// tasks until all their reference streams drain. Each task has its own
// reader, so its position survives preemption; the cache keeps each
// task's pages under its ASID tag, so (without FlushOnSwitch) a task
// resumes into a warm cache. The stats callback, if non-nil, receives
// the final numbers.
func (k *Kernel) Schedule(boardID int, tasks []Task, pol SchedPolicy, done func(SchedStats)) {
	if pol.Quantum <= 0 {
		pol.Quantum = DefaultSchedPolicy().Quantum
	}
	refTime := k.m.Config().Timing.RefTime()
	k.m.RunProgram(boardID, func(c *core.CPU) {
		var st SchedStats
		readers := make([]trace.PackedReader, len(tasks))
		for i, t := range tasks {
			readers[i] = t.Refs.Reader()
		}
		cur := -1
		for {
			// Pick the next runnable task.
			next := -1
			for off := 1; off <= len(tasks); off++ {
				cand := (cur + off) % len(tasks)
				if !readers[cand].Done() {
					next = cand
					break
				}
			}
			if next == -1 {
				break // all drained
			}
			if next != cur {
				st.Switches++
				c.Compute(pol.SwitchInstr)
				if pol.FlushOnSwitch {
					c.FlushCache()
				}
				c.SetASID(tasks[next].ASID)
				cur = next
			}
			deadline := c.Now() + pol.Quantum
			b := c.Board()
			rd := &readers[cur]
			for !rd.Done() && c.Now() < deadline {
				r, _ := rd.Next()
				st.Refs++
				c.Process().Delay(refTime)
				acc := cache.Access{Write: r.IsWrite(), Super: r.Super}
				// Protection faults in a trace are skipped, as in
				// Machine.RunTrace.
				_ = b.Access(c.Process(), r.ASID, r.VAddr, acc)
			}
		}
		st.Elapsed = c.Now()
		if done != nil {
			done(st)
		}
	})
}

// PageOutDaemon periodically flushes candidate pages out of every cache
// with assert-ownership (Section 3.4: "The page-out daemon can
// periodically use assert-ownership to flush cache pages chosen as
// candidates for reclamation out of all caches. The processors then
// update the page table reference information if they subsequently
// refer to these cache pages.").
type PageOutDaemon struct {
	k        *Kernel
	Interval sim.Time
	Batch    int // pages flushed per wakeup
	Flushed  int // total pages flushed
	stop     bool
}

// StartPageOutDaemon runs the daemon on a board. It scans the machine's
// resident pages round-robin, clearing reference bits and flushing the
// pages' cache copies so future touches re-mark them. Stop it with
// Stop; it also exits when the machine drains.
func (k *Kernel) StartPageOutDaemon(boardID int, interval sim.Time, batch int) *PageOutDaemon {
	d := &PageOutDaemon{k: k, Interval: interval, Batch: batch}
	if d.Batch <= 0 {
		d.Batch = 4
	}
	m := k.m
	m.RunProgram(boardID, func(c *core.CPU) {
		c.SetSupervisor(true)
		next := 0
		for !d.stop {
			c.Idle(d.Interval)
			if d.stop {
				return
			}
			pages := m.VM.ResidentPages()
			if len(pages) == 0 {
				continue
			}
			for i := 0; i < d.Batch; i++ {
				pg := pages[next%len(pages)]
				next++
				m.VM.ClearReferenced(pg.ASID, pg.VAddr)
				base := pg.Frame * uint32(vm.PageSize)
				for off := 0; off < vm.PageSize; off += m.Config().Cache.PageSize {
					c.FlushPage(base + uint32(off))
				}
				d.Flushed++
			}
		}
	})
	return d
}

// Stop makes the daemon exit at its next wakeup.
func (d *PageOutDaemon) Stop() { d.stop = true }
