package sim

import "math"

// Rand is a small, fast, deterministic pseudo-random number generator
// (splitmix64). Every stochastic choice in the simulator draws from a
// Rand seeded by the experiment configuration, so identical configs
// yield identical runs. It is not safe for concurrent use, which is fine:
// simulation code runs serialized under the engine.
type Rand struct {
	state uint64
}

// NewRand returns a generator seeded with seed. Distinct seeds give
// independent-looking streams.
func NewRand(seed uint64) *Rand {
	r := &Rand{state: seed}
	// Scramble so that small seeds (0, 1, 2...) do not start with
	// correlated outputs.
	r.Uint64()
	return r
}

// Uint64 returns the next 64 pseudo-random bits.
func (r *Rand) Uint64() uint64 {
	r.state += 0x9e3779b97f4a7c15
	z := r.state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Intn returns a uniform int in [0, n). It panics if n <= 0.
func (r *Rand) Intn(n int) int {
	if n <= 0 {
		panic("sim: Intn with n <= 0")
	}
	return int(r.Uint64() % uint64(n))
}

// Float64 returns a uniform float64 in [0, 1).
func (r *Rand) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Bool returns true with probability p.
func (r *Rand) Bool(p float64) bool { return r.Float64() < p }

// Perm returns a pseudo-random permutation of [0, n).
func (r *Rand) Perm(n int) []int {
	p := make([]int, n)
	for i := range p {
		j := r.Intn(i + 1)
		p[i] = p[j]
		p[j] = i
	}
	return p
}

// Geometric returns a geometrically distributed int >= 1 with success
// probability p in (0, 1]: the number of trials up to and including the
// first success.
func (r *Rand) Geometric(p float64) int {
	if p >= 1 {
		return 1
	}
	if p <= 0 {
		panic("sim: Geometric with p <= 0")
	}
	u := r.Float64()
	if u <= 0 {
		u = math.SmallestNonzeroFloat64
	}
	return 1 + int(math.Log(u)/math.Log(1-p))
}
