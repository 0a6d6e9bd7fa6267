package vmp_test

import (
	"testing"

	"vmp"
)

func TestFacadeQuickstart(t *testing.T) {
	m, err := vmp.New(vmp.Config{Processors: 2})
	if err != nil {
		t.Fatal(err)
	}
	if err := m.EnsureSpace(1); err != nil {
		t.Fatal(err)
	}
	var got uint32
	m.RunProgram(0, func(c *vmp.CPU) {
		c.SetASID(1)
		c.Store(0x1000, 42)
	})
	m.RunProgram(1, func(c *vmp.CPU) {
		c.SetASID(1)
		c.Idle(100 * vmp.Microsecond)
		got = c.Load(0x1000)
	})
	m.Run()
	if got != 42 {
		t.Errorf("second processor read %d, want 42", got)
	}
	if v := m.CheckInvariants(); len(v) != 0 {
		t.Errorf("violations: %v", v)
	}
}

func TestFacadeTraceRun(t *testing.T) {
	m, err := vmp.New(vmp.Config{
		Processors: 1,
		Cache:      vmp.CacheGeometry(128<<10, 256, 4),
	})
	if err != nil {
		t.Fatal(err)
	}
	refs, err := vmp.GenerateTrace("edit", 3, 20_000)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.EnsureSpace(1); err != nil {
		t.Fatal(err)
	}
	m.RunTrace(0, vmp.SliceSource(refs))
	end := m.Run()
	if end <= 0 {
		t.Fatal("no time elapsed")
	}
	if p := m.Performance(0); p <= 0 || p >= 1 {
		t.Errorf("performance %v", p)
	}
}

func TestFacadeProfiles(t *testing.T) {
	ps := vmp.TraceProfiles()
	if len(ps) != 4 {
		t.Fatalf("profiles: %v", ps)
	}
	for _, p := range ps {
		refs, err := vmp.GenerateTrace(p, 1, 100)
		if err != nil || len(refs) != 100 {
			t.Errorf("%s: %v, %d refs", p, err, len(refs))
		}
	}
	if _, err := vmp.GenerateTrace("bogus", 1, 10); err == nil {
		t.Error("bogus profile accepted")
	}
}

func TestFacadeDefaults(t *testing.T) {
	tm := vmp.DefaultTiming()
	if tm.InstrTime <= 0 || tm.RefsPerInstr <= 0 {
		t.Error("bad default timing")
	}
	cfg := vmp.CacheGeometry(256<<10, 512, 4)
	if cfg.Size() != 256<<10 || cfg.PageSize != 512 {
		t.Errorf("geometry %+v", cfg)
	}
}

func TestFacadeAliasPage(t *testing.T) {
	m, err := vmp.New(vmp.Config{Processors: 1})
	if err != nil {
		t.Fatal(err)
	}
	m.EnsureSpace(1)
	if err := m.Prefault(1, []uint32{0x10000, 0x20000}); err != nil {
		t.Fatal(err)
	}
	if err := vmp.AliasPage(m, 1, 0x10000, 0x20000); err != nil {
		t.Fatal(err)
	}
	var got uint32
	m.RunProgram(0, func(c *vmp.CPU) {
		c.SetASID(1)
		c.Store(0x10000, 77)
		got = c.Load(0x20000)
	})
	m.Run()
	if got != 77 {
		t.Errorf("alias read %d, want 77", got)
	}
}

func TestFacadeSimulateMissRatio(t *testing.T) {
	refs, err := vmp.GenerateTrace("edit", 5, 50_000)
	if err != nil {
		t.Fatal(err)
	}
	small := vmp.SimulateMissRatio(vmp.CacheGeometry(64<<10, 256, 4), refs)
	big := vmp.SimulateMissRatio(vmp.CacheGeometry(256<<10, 256, 4), refs)
	if small <= big {
		t.Errorf("miss ratio did not fall with cache size: %v vs %v", small, big)
	}
}

func TestFacadeAssembly(t *testing.T) {
	m, err := vmp.New(vmp.Config{Processors: 1})
	if err != nil {
		t.Fatal(err)
	}
	prog, err := vmp.Assemble("addi r1, r0, 42\nhalt")
	if err != nil {
		t.Fatal(err)
	}
	var res vmp.AsmResult
	if err := vmp.RunAssembly(m, 0, 1, prog, vmp.AsmRunConfig{Base: 0x1000},
		func(r vmp.AsmResult, err error) {
			if err != nil {
				t.Error(err)
			}
			res = r
		}); err != nil {
		t.Fatal(err)
	}
	m.Run()
	if res.Regs[1] != 42 {
		t.Errorf("r1 = %d", res.Regs[1])
	}
}

func TestFacadeKernelScheduler(t *testing.T) {
	m, err := vmp.New(vmp.Config{Processors: 1})
	if err != nil {
		t.Fatal(err)
	}
	k, err := vmp.NewKernel(m, 1)
	if err != nil {
		t.Fatal(err)
	}
	refs, _ := vmp.GenerateTrace("edit", 1, 5000)
	m.PrefaultTrace(refs)
	var st vmp.SchedStats
	k.Schedule(0, []vmp.Task{{ASID: 1, Refs: vmp.Pack(refs)}}, vmp.SchedPolicy{Quantum: vmp.Millisecond},
		func(s vmp.SchedStats) { st = s })
	m.Run()
	if st.Refs != 5000 {
		t.Errorf("refs %d", st.Refs)
	}
}
