package experiments

import (
	"fmt"

	"vmp/internal/isa"
	"vmp/internal/sim"
	"vmp/internal/stats"
)

const spinNaive = `
	li   r10, 0x20000
	li   r11, 0x20100
	addi r5, r0, 200
outer:
acquire:
	tas  r1, (r10)
	beq  r1, r0, got
	b    acquire
got:
	lw   r2, 0(r11)
	addi r2, r2, 1
	sw   r2, 0(r11)
	sw   r0, 0(r10)
	addi r5, r5, -1
	bne  r5, r0, outer
	halt
`

const spinBackoff = `
	li   r10, 0x20000
	li   r11, 0x20100
	addi r5, r0, 200
outer:
	addi r6, r0, 4
acquire:
	tas  r1, (r10)
	beq  r1, r0, got
	add  r7, r6, r0
back:
	addi r7, r7, -1
	bne  r7, r0, back
	add  r6, r6, r6
	slti r8, r6, 512
	bne  r8, r0, acquire
	addi r6, r0, 512
	b    acquire
got:
	lw   r2, 0(r11)
	addi r2, r2, 1
	sw   r2, 0(r11)
	sw   r0, 0(r10)
	addi r5, r5, -1
	bne  r5, r0, outer
	halt
`

// AblationSpinFairness runs the same machine-code critical-section
// workload on four processors with a naive test-and-set spin loop and
// with exponential backoff, for a fixed window of simulated time, and
// reports how many critical sections completed. Naive spinning lets the
// spinners' lock-page ping-pong starve the lock *holder* — the paper's
// protocol guarantees someone progresses, not that the right processor
// does. Backoff restores throughput; the paper's own answer is to not
// spin at all (notification locks, see the locks ablation).
func AblationSpinFairness(o Options) (*Result, error) {
	window := 20 * sim.Millisecond
	if o.Quick {
		window = 8 * sim.Millisecond
	}
	run := func(src string) (uint32, uint64, error) {
		m, err := o.newMachine(4, 64<<10)
		if err != nil {
			return 0, 0, err
		}
		prog, err := isa.Assemble(src)
		if err != nil {
			return 0, 0, err
		}
		for i := 0; i < 4; i++ {
			if err := isa.Run(m, i, 1, prog, isa.RunConfig{Base: 0x10000, MaxSteps: 1 << 30}, nil); err != nil {
				return 0, 0, err
			}
		}
		m.Eng.RunUntil(window)
		defer m.Eng.KillProcesses() // the spinning CPUs and their copiers
		w, err := m.VM.Translate(1, 0x20100, false, false)
		if err != nil {
			return 0, 0, err
		}
		_, bs := m.TotalStats()
		return m.Mem.ReadWord(w.PAddr), bs.Retries, nil
	}
	t := stats.NewTable(
		fmt.Sprintf("Machine-code spin locks, 4 CPUs, %v window", window),
		"Spin Loop", "Critical Sections Done", "Aborted Fills")
	naive, naiveRetries, err := run(spinNaive)
	if err != nil {
		return nil, err
	}
	backoff, backoffRetries, err := run(spinBackoff)
	if err != nil {
		return nil, err
	}
	t.Add("naive test-and-set", naive, naiveRetries)
	t.Add("exponential backoff", backoff, backoffRetries)
	if naive > 0 {
		t.Note = fmt.Sprintf("backoff completes %.0fx more sections in the same time", float64(backoff)/float64(naive))
	}
	return &Result{
		ID:    "spinfair",
		Title: "naive vs backoff spinning in machine code",
		Table: t,
		PaperNote: "Section 5.4: \"the straightforward use of test-and-set locks on the same cache " +
			"pages as the data being modified could result in enormous consistency overhead\"",
	}, nil
}
