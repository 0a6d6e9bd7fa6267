package workload

import (
	"fmt"
	"hash/fnv"
	"math"
	"testing"

	"vmp/internal/sim"
	"vmp/internal/trace"
)

// refsDigest is FNV-1a over every field of every reference, in order.
func refsDigest(refs []trace.Ref) string {
	h := fnv.New64a()
	var b [7]byte
	for _, r := range refs {
		b[0] = byte(r.Kind)
		b[1] = 0
		if r.Super {
			b[1] = 1
		}
		b[2] = r.ASID
		b[3], b[4], b[5], b[6] = byte(r.VAddr), byte(r.VAddr>>8), byte(r.VAddr>>16), byte(r.VAddr>>24)
		h.Write(b[:])
	}
	return fmt.Sprintf("%016x", h.Sum64())
}

// TestGenerateDigests pins the generated streams themselves, so a
// change to the generator's arithmetic that moves a single reference
// fails here before it reaches a run's event order.
func TestGenerateDigests(t *testing.T) {
	want := map[string]string{
		"edit/1":            "45ecfdc677c89416",
		"edit/12":           "7a66eb891426d2da",
		"edit/1000003":      "d626aff6105aef4b",
		"compile/1":         "3d358a7d810c779b",
		"compile/12":        "d4598866288fe2f6",
		"compile/1000003":   "6572d2f008935419",
		"batch/1":           "b04bc50926ceae53",
		"batch/12":          "0c875135b7f9aab5",
		"batch/1000003":     "39956d339a633683",
		"multi/1":           "09ef7337be3a9aaa",
		"multi/12":          "afbc429770e0da6a",
		"multi/1000003":     "a1307619044bfbf6",
		"cluster/clustered": "2c645284bca68b41",
		"cluster/scattered": "a187b1da9a8595fc",
	}
	got := map[string]string{}
	for _, p := range Profiles() {
		for _, seed := range []uint64{1, 12, 1_000_003} {
			refs, err := Generate(p, seed, 60_000)
			if err != nil {
				t.Fatal(err)
			}
			got[fmt.Sprintf("%s/%d", p, seed)] = refsDigest(refs)
		}
	}
	for _, clustered := range []bool{true, false} {
		name := "cluster/scattered"
		if clustered {
			name = "cluster/clustered"
		}
		got[name] = refsDigest(ClusterTrace(DefaultClusterConfig(256, clustered), 60_000))
	}
	for k, w := range want {
		if got[k] != w {
			t.Errorf("%s: digest %s, want %s", k, got[k], w)
		}
	}
}

// searchCDF is the reference for Zipf.index: a binary search for the
// smallest i with cdf[i] >= u, or the last index.
func searchCDF(cdf []float64, u float64) int {
	lo, hi := 0, len(cdf)-1
	for lo < hi {
		mid := (lo + hi) / 2
		if cdf[mid] < u {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// TestZipfMatchesBinarySearch checks that Zipf answers every u in
// [0, 1) with the binary search's index: at 0, at every cdf value and
// its two float neighbours, just below 1, and at random draws.
func TestZipfMatchesBinarySearch(t *testing.T) {
	for _, n := range []int{1, 2, 3, 16, 24, 36, 48, 64, 2048} {
		for _, s := range []float64{0, 0.8, 1.1, 1.2} {
			z := NewZipf(n, s)
			us := []float64{0, 1 - 0x1p-53}
			for _, c := range z.cdf {
				us = append(us, math.Nextafter(c, 0), c, math.Nextafter(c, 2))
			}
			r := sim.NewRand(uint64(n)*1000 + uint64(s*10))
			for i := 0; i < 10_000; i++ {
				us = append(us, r.Float64())
			}
			for _, u := range us {
				if u < 0 || u >= 1 {
					continue // Rand.Float64 draws from [0, 1)
				}
				if got, want := z.index(u), searchCDF(z.cdf, u); got != want {
					t.Fatalf("n=%d s=%v u=%v: index %d, binary search %d", n, s, u, got, want)
				}
			}
		}
	}
}
