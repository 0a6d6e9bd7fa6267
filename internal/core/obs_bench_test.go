package core

import (
	"os"
	"sort"
	"testing"
	"time"

	"vmp/internal/cache"
	"vmp/internal/obs"
)

// obsBenchRun builds and runs one contended 2-board machine with the
// given observability config (nil = tracing disabled) and returns the
// wall time of the Run itself, excluding construction and workload
// generation.
func obsBenchRun(tb testing.TB, cfg *obs.Config, refs int) time.Duration {
	m, err := NewMachine(Config{
		Processors: 2,
		Cache:      cache.Geometry(8<<10, 256, 2),
		MemorySize: 4 << 20,
		Obs:        cfg,
	})
	if err != nil {
		tb.Fatal(err)
	}
	const base, pages = 0x4000, 8
	ps := uint32(m.Config().Cache.PageSize)
	if err := m.EnsureSpace(1); err != nil {
		tb.Fatal(err)
	}
	addrs := make([]uint32, pages)
	for i := range addrs {
		addrs[i] = base + uint32(i)*ps
	}
	if err := m.Prefault(1, addrs); err != nil {
		tb.Fatal(err)
	}
	for i := 0; i < len(m.Boards); i++ {
		i := i
		m.RunProgram(i, func(c *CPU) {
			c.SetASID(1)
			for k := 0; k < refs; k++ {
				a := addrs[(k*7+i*3)%pages]
				if k%3 == 0 {
					c.Store(a, uint32(k))
				} else {
					_ = c.Load(a)
				}
				c.Compute(2)
			}
		})
	}
	start := time.Now()
	m.Run()
	return time.Since(start)
}

// BenchmarkTracingOverhead measures the hot-path cost of the event
// layer in its three states: disabled (nil sink — the one-branch
// path), ring-only (the always-on flight recorder), and full stream
// retention (what -trace-out pays). Compare with:
//
//	go test ./internal/core -bench TracingOverhead -benchtime 10x
func BenchmarkTracingOverhead(b *testing.B) {
	configs := []struct {
		name string
		cfg  *obs.Config
	}{
		{"off", nil},
		{"ring", &obs.Config{}},
		{"stream", &obs.Config{Stream: true}},
	}
	for _, c := range configs {
		c := c
		b.Run(c.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				obsBenchRun(b, c.cfg, 20_000)
			}
		})
	}
}

// TestTracingOverheadGuard enforces the <=5% budget of the always-on
// flight recorder: a run with the ring-only sink (obs.Config{}) may
// take at most 5% longer than the same run with the nil sink. The
// disabled path's one-branch rule is vmplint's nilsink check, not this
// test. The guard compares medians of interleaved runs, which is still
// wall-clock sensitive, so it only runs when CI asks for it via
// VMP_OVERHEAD_GUARD=1.
func TestTracingOverheadGuard(t *testing.T) {
	if os.Getenv("VMP_OVERHEAD_GUARD") != "1" {
		t.Skip("set VMP_OVERHEAD_GUARD=1 to run the tracing-overhead guard")
	}
	const rounds, refs = 7, 40_000
	// Warm up allocators and caches before timing anything.
	obsBenchRun(t, nil, refs)
	obsBenchRun(t, &obs.Config{}, refs)

	var off, ring []time.Duration
	for i := 0; i < rounds; i++ {
		off = append(off, obsBenchRun(t, nil, refs))
		ring = append(ring, obsBenchRun(t, &obs.Config{}, refs))
	}
	median := func(ds []time.Duration) time.Duration {
		sort.Slice(ds, func(i, j int) bool { return ds[i] < ds[j] })
		return ds[len(ds)/2]
	}
	mOff, mRing := median(off), median(ring)
	t.Logf("median run time: off=%v ring=%v (%.2fx)", mOff, mRing, float64(mRing)/float64(mOff))
	if float64(mRing) > 1.05*float64(mOff) {
		t.Errorf("always-on flight recorder costs %.1f%% over the nil-sink path; budget is 5%%",
			100*(float64(mRing)/float64(mOff)-1))
	}
}
