package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
	"hash/fnv"

	"vmp/internal/scenario"
)

// goldenJSON pins the summary digest of full-size simulator runs, keyed
// by spec fingerprint (which covers the workload shape and the seed).
// Regenerate with `go test -run TestGoldenDigests -update` after a
// change that is meant to alter simulated results.
//
//go:embed golden.json
var goldenJSON []byte

// digest fingerprints a run summary: FNV-1a over its JSON form, which
// holds every simulated statistic the run reports.
func digest(s scenario.Summary) (string, error) {
	b, err := json.Marshal(s)
	if err != nil {
		return "", err
	}
	h := fnv.New64a()
	h.Write(b)
	return fmt.Sprintf("%016x", h.Sum64()), nil
}

// checker decides whether a simulator run is correct: it ran, it
// reports no violations, and its summary digest equals the pinned one
// for its spec, or, without a pin, the digest of an earlier run of the
// same spec in this invocation.
type checker struct {
	pins map[string]string
	seen map[string]string
}

func newChecker() (*checker, error) {
	c := &checker{seen: make(map[string]string)}
	if err := json.Unmarshal(goldenJSON, &c.pins); err != nil {
		return nil, fmt.Errorf("golden.json: %w", err)
	}
	return c, nil
}

// pinned reports whether spec has a golden digest.
func (c *checker) pinned(spec scenario.Spec) bool {
	fp, err := spec.Fingerprint()
	_, ok := c.pins[fp]
	return err == nil && ok
}

func (c *checker) run(res *scenario.RunResult, err error) error {
	if err != nil {
		return err
	}
	name := fmt.Sprintf("%s seed %d", res.Spec.Name, res.Spec.Seed)
	if n := len(res.Violations) + res.Summary.Violations; n > 0 {
		return fmt.Errorf("%s: %d violations", name, n)
	}
	d, err := digest(res.Summary)
	if err != nil {
		return err
	}
	if want, ok := c.pins[res.Fingerprint]; ok && want != d {
		return fmt.Errorf("%s: summary digest %s, pinned %s", name, d, want)
	}
	if prev, ok := c.seen[res.Fingerprint]; ok && prev != d {
		return fmt.Errorf("%s: rerun digest %s differs from %s", name, d, prev)
	}
	c.seen[res.Fingerprint] = d
	return nil
}
