package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
)

// costs are the isolated per-op host costs of the layers, in ns.
type costs struct {
	Handoff, ScheduleFire, Lookup, Hit, Miss, Tx, CrossTx, Check float64
}

// measureCosts runs every other micro on the workload's configuration
// and board-0 reference stream, one span each, and reports each cost.
// The miss micro subtracts lookups, so those are measured first.
// bus.cross_tx_ns stays 0 on a single bus, which has no link.
func measureCosts(w workload, o options, tr *tracer, r *report, handoffNs float64) (costs, error) {
	c := costs{Handoff: handoffNs}
	s, cfg, err := machineConfig(w.Sim.spec(w.Name, o.Seed))
	if err != nil {
		return c, err
	}
	refs, err := boardRefs(&s, 0)
	if err != nil {
		return c, err
	}
	if len(refs) > microRefs {
		refs = refs[:microRefs]
	}
	type step struct {
		name string
		dst  *float64
		op   func() opFunc
	}
	steps := []step{
		{"sim.schedule_fire_ns", &c.ScheduleFire, func() opFunc { return scheduleFireOp }},
		{"cache.lookup_ns", &c.Lookup, func() opFunc { return lookupOp(cfg.Cache, refs) }},
		{"core.hit_ns", &c.Hit, func() opFunc { return hitOp(cfg, refs) }},
		{"core.miss_ns", &c.Miss, func() opFunc { return missOp(cfg, c.Lookup) }},
		{"bus.tx_ns", &c.Tx, func() opFunc { return txOp(cfg, 0) }},
		{"monitor.check_ns", &c.Check, func() opFunc { return checkOp(cfg) }},
	}
	if !cfg.Topology.SingleBus() {
		steps = append(steps, step{"bus.cross_tx_ns", &c.CrossTx, func() opFunc { return txOp(cfg, cfg.Topology.BoardsPerBus) }})
	} else {
		r.set("bus.cross_tx_ns", 0, 0)
	}
	for _, st := range steps {
		err := tr.span("micro", st.name, 0, func() (err error) {
			*st.dst, err = perOp(st.op())
			return err
		})
		if err != nil {
			return c, fmt.Errorf("%s: %w", st.name, err)
		}
		r.set(st.name, *st.dst, microReps)
	}
	return c, nil
}

// ledgerRow charges count operations of one layer at its isolated cost.
type ledgerRow struct {
	Row     string  `json:"row"`
	Count   float64 `json:"count"`
	NsPerOp float64 `json:"ns_per_op"`
	Seconds float64 `json:"seconds"`
}

// ledger predicts a run's host time from its counts and the per-op
// costs, against the measured core.run_s. The rows are disjoint: every
// fired event is charged one handoff, every cache lookup one lookup,
// every reference the Board.Access work beyond its lookup, and every
// fill the miss handler's own work (measured without its handoffs and
// lookups, which include the bus, monitor and copier work it drives).
type ledger struct {
	Rows       []ledgerRow `json:"rows"`
	Predicted  float64     `json:"predicted_s"`
	Measured   float64     `json:"measured_run_s"`
	Residual   float64     `json:"residual_frac"`
	Unassigned float64     `json:"residual_s"`
}

func newLedger(c counts, k costs, runS float64) ledger {
	rows := []ledgerRow{
		{Row: "sim.handoff", Count: float64(c.Events), NsPerOp: k.Handoff},
		{Row: "cache.lookup", Count: float64(c.Lookups), NsPerOp: k.Lookup},
		{Row: "core.access", Count: float64(c.Refs), NsPerOp: max(k.Hit-k.Lookup, 0)},
		{Row: "core.miss", Count: float64(c.Fills), NsPerOp: k.Miss},
	}
	l := ledger{Measured: runS}
	for i := range rows {
		rows[i].Seconds = rows[i].Count * rows[i].NsPerOp / 1e9
		l.Predicted += rows[i].Seconds
	}
	l.Rows = rows
	l.Unassigned = runS - l.Predicted
	l.Residual = frac(l.Unassigned, runS)
	return l
}

func (l ledger) row(name string) float64 {
	for _, r := range l.Rows {
		if r.Row == name {
			return r.Seconds
		}
	}
	return 0
}

func (l ledger) set(r *report) {
	r.set("sim.ledger_s", l.row("sim.handoff"), 1)
	r.set("cache.ledger_s", l.row("cache.lookup"), 1)
	r.set("core.ledger_s", l.row("core.access")+l.row("core.miss"), 1)
	r.set("ledger.predicted_s", l.Predicted, 1)
	r.set("ledger.residual_frac", l.Residual, 1)
}

func (l ledger) print(w io.Writer) {
	fmt.Fprintf(w, "ledger %-14s %12s %10s %9s\n", "row", "count", "ns/op", "seconds")
	for _, r := range l.Rows {
		fmt.Fprintf(w, "ledger %-14s %12.0f %10.1f %9.4f\n", r.Row, r.Count, r.NsPerOp, r.Seconds)
	}
	fmt.Fprintf(w, "ledger %-14s %33.4f\n", "predicted", l.Predicted)
	fmt.Fprintf(w, "ledger %-14s %33.4f\n", "core.run_s", l.Measured)
	fmt.Fprintf(w, "ledger %-14s %33.4f (%.1f%% of core.run_s)\n", "residual", l.Unassigned, 100*l.Residual)
}

func (l ledger) writeJSON(path string) error {
	b, err := json.MarshalIndent(l, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}
