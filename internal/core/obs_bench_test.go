package core

import (
	"testing"
	"time"

	"vmp/internal/cache"
	"vmp/internal/obs"
)

// obsBenchRun builds and runs one contended 2-board machine with the
// given observability config and returns the wall time of the Run
// itself, excluding construction and workload generation.
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

// BenchmarkTracingOverhead measures the event layer in its two states:
// ring-only (the flight recorder every machine has) and full stream
// retention (what -trace-out pays). Compare with:
//
//	go test ./internal/core -bench TracingOverhead -benchtime 10x
func BenchmarkTracingOverhead(b *testing.B) {
	configs := []struct {
		name string
		cfg  *obs.Config
	}{
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
