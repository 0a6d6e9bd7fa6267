package scenario

import (
	"fmt"
	"os"
	"sync"
	"sync/atomic"

	"vmp/internal/kernel"
	"vmp/internal/trace"
	"vmp/internal/workload"
)

// streamKey is everything a board's tasks are made from: the workload
// fields below, the spec's seed, the board index and the scheduler's
// task count. stream and tasks read nothing else, so a board's tasks
// are a pure function of its key, and two cells that agree on a key
// can share its tasks.
type streamKey struct {
	kind, profile, traceFile string
	refs                     int
	shareKernel              bool
	seed                     uint64
	board, tasksPer          int
}

// keyOf is board i's key in the normalized spec s.
func keyOf(s *Spec, i int) streamKey {
	w := s.Workload
	return streamKey{
		kind: w.Kind, profile: w.Profile, traceFile: w.TraceFile, refs: w.Refs,
		shareKernel: w.ShareKernel, seed: s.Seed, board: i, tasksPer: s.tasksPer(),
	}
}

// stream materializes the key's reference stream: per-board seed
// derivation (seed + 31*board, the vmpsim convention), per-board ASID,
// and kernel-region slicing unless shareKernel.
func (k streamKey) stream() ([]trace.Ref, error) {
	var refs []trace.Ref
	switch k.kind {
	case WorkloadProfile:
		r, err := workload.Generate(workload.Profile(k.profile), k.seed+uint64(k.board)*31, k.refs)
		if err != nil {
			return nil, err
		}
		refs = r
	case WorkloadTrace:
		f, err := os.Open(k.traceFile)
		if err != nil {
			return nil, err
		}
		defer f.Close()
		br, err := trace.OpenBinary(f)
		if err != nil {
			return nil, err
		}
		refs = trace.Collect(br, k.refs)
		if err := br.Err(); err != nil {
			return nil, err
		}
	default:
		return nil, fmt.Errorf("scenario: stream of workload kind %q", k.kind)
	}
	asid := uint8(k.board + 1)
	for j := range refs {
		refs[j].ASID = asid
		if !k.shareKernel && refs[j].VAddr >= workload.KernelCodeBase {
			refs[j].VAddr += uint32(k.board) << 24
		}
	}
	return refs, nil
}

// tasks is the key's stream as one task on ASID board+1, or with
// tasksPer > 0 split into tasksPer consecutive tasks, each re-stamped
// with ASID 1+board*tasksPer+t so boards never share a user space.
func (k streamKey) tasks() ([]kernel.Task, error) {
	refs, err := k.stream()
	if err != nil {
		return nil, err
	}
	if k.tasksPer == 0 {
		return []kernel.Task{{ASID: uint8(k.board + 1), Refs: refs}}, nil
	}
	tasks := make([]kernel.Task, k.tasksPer)
	per := len(refs) / k.tasksPer
	for t := range tasks {
		asid := uint8(1 + k.board*k.tasksPer + t)
		lo, hi := t*per, (t+1)*per
		if t == k.tasksPer-1 {
			hi = len(refs)
		}
		part := refs[lo:hi]
		for j := range part {
			part[j].ASID = asid
		}
		tasks[t] = kernel.Task{ASID: asid, Refs: part}
	}
	return tasks, nil
}

// streamTable holds the boards' tasks for the cells of one RunCells
// call (a single run is a call of one cell), so that each distinct key
// is generated once and every cell that needs it shares it. Sharing
// needs no copy: the stamp, the shift and the split are part of the
// key's tasks, and a machine only reads them (PrefaultTrace, the trace
// CPU's slice source and the kernel scheduler).
//
// newStreamTable counts each key's users before any cell runs, and an
// entry leaves the table when its last user takes it, so a sweep holds
// no stream that none of its unstarted cells needs.
type streamTable struct {
	mu      sync.Mutex
	entries map[streamKey]*streamEntry
	// generated counts the keys generated; tests read it.
	generated atomic.Int64
}

// streamEntry is one key's tasks, made by the first cell that takes
// the key while the others wait in once. A generation's error, or its
// panic, is handed to every cell that takes the key.
type streamEntry struct {
	users    int // cells that have yet to take the entry
	once     sync.Once
	tasks    []kernel.Task
	err      error
	panicked any
}

// newStreamTable counts the board keys of the cells, from each cell's
// spec normalized as run normalizes it. A cell whose spec does not
// normalize, or that replays no stream, counts nothing.
func newStreamTable(cells []Cell) *streamTable {
	t := &streamTable{entries: make(map[streamKey]*streamEntry)}
	for _, c := range cells {
		s, err := normalized(c.Spec)
		if err != nil || !s.Workload.traceDriven() {
			continue
		}
		for i := 0; i < s.Machine.Processors; i++ {
			k := keyOf(&s, i)
			e := t.entries[k]
			if e == nil {
				e = &streamEntry{}
				t.entries[k] = e
			}
			e.users++
		}
	}
	return t
}

// take returns the key's tasks, generating them if no cell has yet.
// The entry leaves the table when its last counted user takes it.
func (t *streamTable) take(k streamKey) ([]kernel.Task, error) {
	t.mu.Lock()
	e := t.entries[k]
	if e.users--; e.users == 0 {
		delete(t.entries, k)
	}
	t.mu.Unlock()
	e.once.Do(func() {
		t.generated.Add(1)
		defer func() { e.panicked = recover() }()
		e.tasks, e.err = k.tasks()
	})
	if e.panicked != nil {
		panic(e.panicked)
	}
	return e.tasks, e.err
}

// boardTasks takes every board's tasks for the normalized spec s, each
// board on its own goroutine, and returns them in board order. The
// tasks are a pure function of their keys, so the result does not
// depend on scheduling. The goroutines need no bound beyond the board
// count: the run holds every board's tasks until it ends.
//
// The lowest-numbered board's failure is reported, as a serial loop
// would report it: its error is returned, or its panic (such as a
// reference count too large for a slice) is raised again on the
// caller's goroutine, where RunGuarded contains it.
func (t *streamTable) boardTasks(s *Spec) ([][]kernel.Task, error) {
	boards := s.Machine.Processors
	tasks := make([][]kernel.Task, boards)
	errs := make([]error, boards)
	panics := make([]any, boards)
	var wg sync.WaitGroup
	for i := range tasks {
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer func() { panics[i] = recover() }()
			tasks[i], errs[i] = t.take(keyOf(s, i))
		}()
	}
	wg.Wait()
	for i, err := range errs {
		if panics[i] != nil {
			panic(panics[i])
		}
		if err != nil {
			return nil, err
		}
	}
	return tasks, nil
}
