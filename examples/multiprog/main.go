// Multiprog: the kernel timeslices three address spaces on one
// processor board. Because the cache is tagged <ASID, virtual address>,
// a context switch is just a write of the ASID register — each task
// resumes into its own still-warm cache lines. The same run with
// flush-on-switch shows what the ASID tag saves (footnote 1 of the
// paper).
//
// Run with: go run ./examples/multiprog
package main

import (
	"fmt"
	"log"

	"vmp"
)

func main() {
	run := func(flush bool) (vmp.SchedStats, uint64) {
		m, err := vmp.New(vmp.Config{Processors: 1})
		if err != nil {
			log.Fatal(err)
		}
		k, err := vmp.NewKernel(m, 1)
		if err != nil {
			log.Fatal(err)
		}
		var tasks []vmp.Task
		for i := 0; i < 3; i++ {
			asid := uint8(i + 1)
			refs, err := vmp.GenerateTrace("edit", uint64(i)*7+3, 30_000)
			if err != nil {
				log.Fatal(err)
			}
			for j := range refs {
				refs[j].ASID = asid
			}
			if err := m.PrefaultTrace(refs); err != nil {
				log.Fatal(err)
			}
			tasks = append(tasks, vmp.Task{ASID: asid, Refs: vmp.Pack(refs)})
		}
		var st vmp.SchedStats
		k.Schedule(0, tasks, vmp.SchedPolicy{
			Quantum:       500 * vmp.Microsecond,
			SwitchInstr:   150,
			FlushOnSwitch: flush,
		}, func(s vmp.SchedStats) { st = s })
		m.Run()
		if v := m.CheckInvariants(); len(v) != 0 {
			log.Fatalf("violations: %v", v)
		}
		return st, m.Boards[0].Cache.Stats().Fills
	}

	asid, asidFills := run(false)
	flush, flushFills := run(true)

	fmt.Printf("3 tasks × 30,000 refs, 500µs quantum, one processor:\n\n")
	fmt.Printf("  ASID-tagged cache:  %9v elapsed, %4d switches, %5d cache fills\n",
		asid.Elapsed, asid.Switches, asidFills)
	fmt.Printf("  flush on switch:    %9v elapsed, %4d switches, %5d cache fills\n",
		flush.Elapsed, flush.Switches, flushFills)
	fmt.Printf("\nthe ASID register turns a context switch into one store;")
	fmt.Printf(" without it every\nswitch discards the whole cache (%.1fx more fills, %.2fx slower)\n",
		float64(flushFills)/float64(asidFills), float64(flush.Elapsed)/float64(asid.Elapsed))
}
