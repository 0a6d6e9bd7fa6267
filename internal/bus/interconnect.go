package bus

import (
	"fmt"

	"vmp/internal/sim"
)

// Interconnect is what the machine issues transactions through: boards,
// monitors, copiers, the miss handler and the kernel call Do and never
// need to know the topology. *Hierarchy is its one implementation — a
// single shared VMEbus, or local bus segments joined by an inter-bus
// link (hierarchy.go). Configuration (SetTiming, SetSink, SetInjector,
// SetObserver) lives on that concrete type and must happen before the
// simulation starts.
type Interconnect interface {
	// Do performs one transaction on behalf of process p, blocking p
	// for the arbitration and transfer time.
	Do(p *sim.Process, tx Transaction) Result
	// Attach registers a bus monitor on its board's segment.
	Attach(s Snooper)
	// Timing returns the timing constants.
	Timing() Timing
	// Stats returns the aggregate transaction counters.
	Stats() Stats
	// Utilization returns the mean fraction of simulated time the bus
	// segments were busy.
	Utilization() float64
}

var _ Interconnect = (*Hierarchy)(nil)

// MaxBoards bounds the board count of a hierarchical machine: the
// inclusion filter keeps one presence bit per board per page frame in a
// uint64, which is also what keeps filter updates free of map-order
// dependence. Single-bus machines are not bounded.
const MaxBoards = 64

// Topology describes the interconnect shape. The zero value (and any
// value with Buses <= 1) selects the classic single shared VMEbus.
type Topology struct {
	// Buses is the number of local bus segments.
	Buses int
	// BoardsPerBus is the number of board slots per segment; board i
	// lives on segment i/BoardsPerBus. Zero spreads the boards evenly
	// (filled in by core.Config.FillDefaults).
	BoardsPerBus int
}

// SingleBus reports whether the topology is the classic one-bus
// machine.
func (t Topology) SingleBus() bool { return t.Buses <= 1 }

// SegmentOf returns the segment a board lives on. DMA transactions
// (NoRequester) issue on segment 0, the segment the I/O adapters share.
func (t Topology) SegmentOf(board int) int {
	if board < 0 || t.BoardsPerBus <= 0 {
		return 0
	}
	s := board / t.BoardsPerBus
	if s >= t.Buses {
		return t.Buses - 1
	}
	return s
}

// Validate rejects an unusable multi-bus shape for the given board
// count. Single-bus topologies are always valid.
func (t Topology) Validate(boards int) error {
	if t.SingleBus() {
		return nil
	}
	if t.Buses > MaxBoards {
		return fmt.Errorf("%d buses exceeds the %d-segment limit", t.Buses, MaxBoards)
	}
	if t.BoardsPerBus < 1 {
		return fmt.Errorf("boards-per-bus %d; need at least 1", t.BoardsPerBus)
	}
	if boards > MaxBoards {
		return fmt.Errorf("%d boards exceeds the inclusion filter's %d-board limit", boards, MaxBoards)
	}
	if t.Buses*t.BoardsPerBus < boards {
		return fmt.Errorf("%d buses x %d boards-per-bus seats fewer than %d boards", t.Buses, t.BoardsPerBus, boards)
	}
	return nil
}
