package scenario

import (
	"encoding/json"
	"flag"
	"fmt"
	"hash/fnv"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite testdata/recorder_goldens.txt from the current code")

// recorderGoldens holds one line per cell: its name, the number of
// metrics its run registered and a hash of every name=value pair.
const recorderGoldens = "testdata/recorder_goldens.txt"

// TestRecorderGoldens pins the per-run metrics sink of every cell of the
// committed scenarios/*.json: the full Recorder snapshot, zero-valued
// counters included, so a change to any registered name, to the set of
// names or to any value shows up here. livelock-demo.json is meant to
// fail and is left out. Run with -update to rewrite the goldens.
func TestRecorderGoldens(t *testing.T) {
	files, err := filepath.Glob("../../scenarios/*.json")
	if err != nil || len(files) == 0 {
		t.Fatalf("no scenario files found: %v", err)
	}
	var lines []string
	for _, f := range files {
		if filepath.Base(f) == "livelock-demo.json" {
			continue
		}
		cells, err := fileCells(f)
		if err != nil {
			t.Fatal(err)
		}
		for _, c := range cells {
			res, err := Run(c.Spec)
			if err != nil {
				t.Fatalf("%s:%s: %v", filepath.Base(f), c.Name, err)
			}
			snap := res.Machine.Eng.Recorder().Snapshot()
			h := fnv.New64a()
			for _, m := range snap {
				fmt.Fprintf(h, "%s=%d\n", m.Name, m.Value)
			}
			lines = append(lines, fmt.Sprintf("%s:%s %d %016x", filepath.Base(f), c.Name, len(snap), h.Sum64()))
		}
	}
	got := strings.Join(lines, "\n") + "\n"
	if *update {
		if err := os.WriteFile(recorderGoldens, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	data, err := os.ReadFile(recorderGoldens)
	if err != nil {
		t.Fatalf("%v (run with -update to create it)", err)
	}
	want := strings.Split(strings.TrimSuffix(string(data), "\n"), "\n")
	if len(want) != len(lines) {
		t.Fatalf("%d cells, golden has %d", len(lines), len(want))
	}
	for i := range lines {
		if lines[i] != want[i] {
			t.Errorf("cell %d drifted:\n  got  %s\n  want %s", i, lines[i], want[i])
		}
	}
}

// fileCells expands a committed scenario file: a grid (it has a "base")
// into its cells, a spec into one cell named after it.
func fileCells(path string) ([]Cell, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var probe struct {
		Base json.RawMessage `json:"base"`
	}
	if err := json.Unmarshal(data, &probe); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if probe.Base != nil {
		g, err := ParseGrid(data)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		return g.Expand()
	}
	s, err := ParseSpec(data)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return []Cell{{Name: s.Name, Spec: *s}}, nil
}
