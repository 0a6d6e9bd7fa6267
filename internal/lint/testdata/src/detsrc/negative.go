// Negative cases for detsrc: the deterministic idioms must stay clean.
package detsrc

import (
	"fmt"
	"math/rand"
	"sort"
)

// Seeded uses the explicitly seeded generator: deterministic by
// construction.
func Seeded(seed int64) {
	r := rand.New(rand.NewSource(seed))
	record(fmt.Sprint(r.Int()))
}

// SortedKeys sorts before serializing: sort.* clears order taint.
func SortedKeys(m map[string]int) {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	record(fmt.Sprint(keys))
}

// Plain passes an ordinary deterministic value.
func Plain(spec string, n int) {
	record(fmt.Sprintf("%s/%d", spec, n))
}
