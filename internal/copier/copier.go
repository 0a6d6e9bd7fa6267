// Package copier models the block copier embedded in each VMP cache
// controller. The copier performs cache-page transfers over the bus
// using the sequential block-transfer protocol (40 MB/s on the
// prototype's VMEbus) and runs concurrently with the CPU, which executes
// the miss-handler bookkeeping out of local memory during the transfer.
//
// For comparison (the paper notes a processor copy loop manages less
// than 5 MB/s), CopyByCPU performs the same movement with single-word
// plain transfers plus per-word instruction overhead.
package copier

import (
	"fmt"

	"vmp/internal/bus"
	"vmp/internal/obs"
	"vmp/internal/sim"
	"vmp/internal/stats"
)

// maxReissues bounds the transfer-error re-issue loop. Exhausting it
// means the transfer hardware is persistently broken — fatal by design,
// there is no software recovery for a page that cannot be moved.
const maxReissues = 12

// reissueShiftCap caps the exponential backoff between re-issues.
const reissueShiftCap = 6

// Copier is one board's block-copy engine. Create with New.
//
// Like the hardware it models, a copier serves one transfer after
// another: its process is spawned by the first Start, pauses after
// each transfer, and is woken by the next Start. It stays live when
// the engine's Run returns, so whoever owns the engine ends it with
// KillProcesses; the Start after that spawns a fresh process.
type Copier struct {
	eng     *sim.Engine
	bus     bus.Interconnect
	boardID int

	proc   *sim.Process // nil until the first Start, and after a kill
	tx     bus.Transaction
	busy   bool
	done   sim.Signal
	result bus.Result

	stats Stats
	sink  *obs.Sink
}

// Stats counts copier activity.
type Stats struct {
	Transfers      uint64
	Aborted        uint64
	Reissues       uint64 // re-issued transfers after transfer errors
	TransferErrors uint64 // injected transfer errors observed
	BytesMoved     uint64
	BusTime        sim.Time
}

// New creates a copier for the given board, registering its counters in
// the engine's per-run recorder under "board<i>/copier/...".
func New(eng *sim.Engine, b bus.Interconnect, boardID int) *Copier {
	c := &Copier{eng: eng, bus: b, boardID: boardID}
	rec, s := eng.Recorder(), &c.stats
	prefix := fmt.Sprintf("board%d/copier/", boardID)
	stats.Register(rec, prefix+"transfers", &s.Transfers)
	stats.Register(rec, prefix+"aborted", &s.Aborted)
	stats.Register(rec, prefix+"reissues", &s.Reissues)
	stats.Register(rec, prefix+"transfer-errors", &s.TransferErrors)
	stats.Register(rec, prefix+"bytes-moved", &s.BytesMoved)
	stats.Register(rec, prefix+"bus-time-ns", &s.BusTime)
	return c
}

// Stats returns a copy of the counters.
func (c *Copier) Stats() Stats { return c.stats }

// SetSink attaches the observability sink; every transfer then emits a
// KindCopy event spanning its start to completion, re-issues included.
func (c *Copier) SetSink(s *obs.Sink) { c.sink = s }

// Start launches a block transaction asynchronously. The CPU may keep
// executing (bookkeeping in local memory) and must call Wait before
// depending on the result. Starting while busy is a programming error
// in the miss handler and panics. Waking the paused copier schedules
// the same zero-delay step that spawning it does, so the event order
// does not depend on whether the copier had a process already.
func (c *Copier) Start(tx bus.Transaction) {
	if c.busy {
		panic("copier: Start while busy")
	}
	tx.Requester = c.boardID
	c.tx, c.busy = tx, true
	if c.proc == nil {
		c.proc = c.eng.Spawn("copier", c.serve)
	} else {
		c.proc.Wake()
	}
}

// serve is the copier's process body: one transfer per Start, paused
// in between. A kill unwinds it, and the deferred reset makes the next
// Start spawn a new process.
func (c *Copier) serve(p *sim.Process) {
	defer func() { c.proc = nil }()
	for {
		c.transfer(p, c.tx)
		p.Pause()
	}
}

// transfer performs one transaction on the copier's process and
// publishes its result to Wait.
func (c *Copier) transfer(p *sim.Process, tx bus.Transaction) {
	start := p.Now()
	reissued := false
	res := c.bus.Do(p, tx)
	c.stats.Transfers++
	// A transfer error has no protocol side effects, so the copier
	// re-issues the identical transaction after a bounded,
	// deterministic exponential backoff. An abort is different: it has
	// a protocol cause the miss handler must resolve, so it is reported
	// up instead of retried here.
	for attempt := 0; res.TransferErr; attempt++ {
		c.stats.TransferErrors++
		reissued = true
		if attempt == maxReissues {
			panic(fmt.Sprintf("copier: board %d transfer %v paddr %#x failed %d times",
				c.boardID, tx.Op, tx.PAddr, maxReissues))
		}
		shift := attempt
		if shift > reissueShiftCap {
			shift = reissueShiftCap
		}
		p.Delay(c.bus.Timing().ArbAddr << shift)
		c.stats.Reissues++
		res = c.bus.Do(p, tx)
		c.stats.Transfers++
	}
	c.stats.BusTime += p.Now() - start
	if res.Aborted {
		c.stats.Aborted++
	} else {
		c.stats.BytesMoved += uint64(tx.Bytes)
	}
	var fl uint8
	if res.Aborted {
		fl |= obs.FlagAborted
	}
	if reissued {
		fl |= obs.FlagTransferErr
	}
	c.sink.Emit(obs.Event{
		Time: start, Dur: p.Now() - start, PAddr: tx.PAddr,
		Board: int16(c.boardID), Kind: obs.KindCopy, Arg: uint8(tx.Op), Flags: fl,
	})
	c.result = res
	c.busy = false
	c.done.Broadcast()
}

// Wait blocks p until the in-flight transfer (if any) completes and
// returns its result.
func (c *Copier) Wait(p *sim.Process) bus.Result {
	for c.busy {
		c.done.Wait(p)
	}
	return c.result
}

// Run performs a block transaction synchronously: Start followed by
// Wait.
func (c *Copier) Run(p *sim.Process, tx bus.Transaction) bus.Result {
	c.Start(tx)
	return c.Wait(p)
}

// CPUCopyTiming parameterizes the software copy loop used by the
// block-copier ablation: per-word loop overhead executed by the CPU in
// addition to the word-at-a-time bus transfers.
type CPUCopyTiming struct {
	PerWordOverhead sim.Time
}

// DefaultCPUCopyTiming models a tight 68020 copy loop: roughly two
// instructions (load, store with post-increment and branch folded in)
// per longword at ~420 ns each beyond the bus transfer itself.
func DefaultCPUCopyTiming() CPUCopyTiming {
	return CPUCopyTiming{PerWordOverhead: 400 * sim.Nanosecond}
}

// CopyByCPU moves n bytes using single-word plain bus transactions in a
// software loop, charging loop overhead per word: the slow path the
// block copier exists to avoid. It returns the bus time consumed.
func (c *Copier) CopyByCPU(p *sim.Process, paddr uint32, n int, t CPUCopyTiming) sim.Time {
	var busTime sim.Time
	for off := 0; off < n; off += 4 {
		p.Delay(t.PerWordOverhead)
		start := p.Now()
		c.bus.Do(p, bus.Transaction{
			Op: bus.PlainRead, PAddr: paddr + uint32(off), Bytes: 4, Requester: c.boardID,
		})
		busTime += p.Now() - start
	}
	return busTime
}
