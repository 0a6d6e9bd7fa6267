package sim

import (
	"math"
	"testing"
	"testing/quick"
)

func TestRandDeterministic(t *testing.T) {
	a, b := NewRand(42), NewRand(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatal("same seed diverged")
		}
	}
}

func TestRandSeedsDiffer(t *testing.T) {
	a, b := NewRand(1), NewRand(2)
	same := 0
	for i := 0; i < 100; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 0 {
		t.Errorf("%d collisions between different seeds", same)
	}
}

func TestIntnRange(t *testing.T) {
	f := func(seed uint64, n uint8) bool {
		m := int(n%100) + 1
		r := NewRand(seed)
		for i := 0; i < 50; i++ {
			v := r.Intn(m)
			if v < 0 || v >= m {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestFloat64Range(t *testing.T) {
	r := NewRand(7)
	for i := 0; i < 10000; i++ {
		v := r.Float64()
		if v < 0 || v >= 1 {
			t.Fatalf("Float64 out of range: %v", v)
		}
	}
}

func TestFloat64Mean(t *testing.T) {
	r := NewRand(9)
	sum := 0.0
	const n = 100000
	for i := 0; i < n; i++ {
		sum += r.Float64()
	}
	mean := sum / n
	if math.Abs(mean-0.5) > 0.01 {
		t.Errorf("mean %v, want ~0.5", mean)
	}
}

func TestGeometricMean(t *testing.T) {
	r := NewRand(13)
	const p = 0.25
	geo := NewGeometric(p)
	sum := 0
	const n = 100000
	for i := 0; i < n; i++ {
		g := geo.Sample(r)
		if g < 1 {
			t.Fatalf("Geometric returned %d < 1", g)
		}
		sum += g
	}
	mean := float64(sum) / n
	if math.Abs(mean-1/p) > 0.1 {
		t.Errorf("geometric mean %v, want ~%v", mean, 1/p)
	}
}

func TestGeometricPOne(t *testing.T) {
	r := NewRand(1)
	geo := NewGeometric(1.0)
	for i := 0; i < 10; i++ {
		if g := geo.Sample(r); g != 1 {
			t.Fatalf("Geometric(1) = %d, want 1", g)
		}
	}
}

func TestGeometricNonPositivePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("NewGeometric(0) did not panic")
		}
	}()
	NewGeometric(0)
}

func TestPermIsPermutation(t *testing.T) {
	f := func(seed uint64, n uint8) bool {
		m := int(n % 64)
		p := NewRand(seed).Perm(m)
		if len(p) != m {
			return false
		}
		seen := make([]bool, m)
		for _, v := range p {
			if v < 0 || v >= m || seen[v] {
				return false
			}
			seen[v] = true
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestBoolProbability(t *testing.T) {
	r := NewRand(3)
	hits := 0
	const n = 100000
	for i := 0; i < n; i++ {
		if r.Bool(0.3) {
			hits++
		}
	}
	frac := float64(hits) / n
	if math.Abs(frac-0.3) > 0.01 {
		t.Errorf("Bool(0.3) hit rate %v", frac)
	}
}

// geometricFormula is the reference for Geometric.Sample: the same
// draw with log(1-p) recomputed on every call.
func geometricFormula(r *Rand, p float64) int {
	if p >= 1 {
		return 1
	}
	u := r.Float64()
	if u <= 0 {
		u = math.SmallestNonzeroFloat64
	}
	return 1 + int(math.Log(u)/math.Log(1-p))
}

// TestGeometricMatchesFormula checks the sampler against the formula on
// the same Rand stream, for the success probabilities the workload
// profiles use. For p >= 1 it also checks that no draw is consumed.
func TestGeometricMatchesFormula(t *testing.T) {
	for _, p := range []float64{1.0 / 8, 1.0 / 12, 1.0 / 24, 1.0 / 110, 1.0 / 130, 1.0 / 160, 1.0 / 190, 1, math.Inf(1)} {
		geo := NewGeometric(p)
		got, want := NewRand(77), NewRand(77)
		for i := 0; i < 10_000; i++ {
			if g, w := geo.Sample(got), geometricFormula(want, p); g != w {
				t.Fatalf("p=%v draw %d: %d, formula %d", p, i, g, w)
			}
		}
		if p >= 1 && got.state != NewRand(77).state {
			t.Fatalf("p=%v: the sampler consumed a draw", p)
		}
		if got.Uint64() != want.Uint64() {
			t.Fatalf("p=%v: the sampler and the formula consumed different draws", p)
		}
	}
}
