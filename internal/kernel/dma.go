package kernel

import (
	"vmp/internal/bus"
	"vmp/internal/core"
	"vmp/internal/sim"
)

// DMADevice models a VME-standard DMA device (an Ethernet interface or
// framebuffer): it moves data with plain bus transactions that the bus
// monitors ignore. Consistency is the operating system's job, performed
// by DMATransfer around the device activity (Section 3.3).
type DMADevice struct {
	Name string
	m    *core.Machine
}

// dmaBlockSize is a device's burst length per bus transaction.
const dmaBlockSize = 256

// NewDMADevice creates a device on the machine's bus.
func NewDMADevice(m *core.Machine, name string) *DMADevice {
	return &DMADevice{Name: name, m: m}
}

// transfer runs the raw device transfer (no consistency protection) as
// a simulation process and returns when it completes.
func (d *DMADevice) transfer(p *sim.Process, paddr uint32, data []byte, write bool) {
	for off := 0; off < len(data); off += dmaBlockSize {
		n := dmaBlockSize
		if off+n > len(data) {
			n = len(data) - off
		}
		op := bus.PlainRead
		if write {
			op = bus.PlainWrite
		}
		d.m.Bus.Do(p, bus.Transaction{
			Op: op, PAddr: paddr + uint32(off), Bytes: n, Requester: bus.NoRequester,
		})
		if write {
			d.m.Mem.WriteBlock(paddr+uint32(off), data[off:off+n])
		} else {
			copy(data[off:off+n], d.m.Mem.ReadBlock(paddr+uint32(off), n))
		}
	}
}

// DMATransfer performs a consistency-safe DMA into or out of the
// physical region [paddr, paddr+len(data)) on behalf of the CPU's
// board, following the paper's sequence:
//
//  1. a high-level lock on the area (the caller holds it; this routine
//     is the per-board critical section);
//  2. assert-ownership on every cache page of the area, discarding or
//     writing back all cached copies, and leave this board's action
//     table aborting consistency transactions on the area;
//  3. run the device transfer (plain transactions, never aborted);
//  4. clear the action-table entries.
func (k *Kernel) DMATransfer(c *core.CPU, dev *DMADevice, paddr uint32, data []byte, write bool) {
	p := c.Process()
	n := len(data)
	c.ProtectRegion(paddr, n)

	var sig sim.Signal
	finished := false
	dev.m.Eng.Spawn("dma:"+dev.Name, func(dp *sim.Process) {
		dev.transfer(dp, paddr, data, write)
		finished = true
		sig.Broadcast()
	})
	for !finished {
		sig.Wait(p)
	}

	c.UnprotectRegion(paddr, n)
	k.stats.DMATransfers++
}
