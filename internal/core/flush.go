package core

import (
	"vmp/internal/bus"
	"vmp/internal/monitor"
	"vmp/internal/sim"
)

// FlushCache empties the whole cache: dirty private pages are written
// back, everything else is dropped, and the action-table entries are
// cleared. This is what a machine *without* ASID tags would have to do
// on every context switch — provided for the ASID ablation and for
// orderly shutdown. Costs are charged per page like the normal
// eviction paths.
func (b *Board) FlushCache(p *sim.Process) {
	for _, frame := range b.sortedFrames() {
		fi := b.frames[frame]
		if fi == nil {
			continue
		}
		p.Delay(b.timing().Handler.RecoveryPerPage)
		if fi.state == psPrivate {
			b.releaseOwnership(p, frame, fi, false)
			continue
		}
		b.invalidateFrame(frame, fi)
		b.m.Bus.Do(p, bus.Transaction{
			Op: bus.WriteActionTable, PAddr: b.frameAddr(frame), Requester: b.ID,
			Action: uint8(monitor.Ignore),
		})
	}
}

// FlushCache is also available from program context.
func (c *CPU) FlushCache() { c.b.FlushCache(c.p) }
