package experiments

import (
	"encoding/json"
	"flag"
	"fmt"
	"hash/fnv"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"vmp/internal/scenario"
)

var update = flag.Bool("update", false, "rewrite testdata/event_goldens.txt from the current code")

// eventGoldens holds one line per cell: its name, the digest of its
// event stream and a hash of its summary and violations — or, for a
// cell that is meant to fail, its error text.
const eventGoldens = "testdata/event_goldens.txt"

// TestEventGoldens pins the event order of every registry grid cell
// (quick options) and of every cell of the committed scenarios/*.json,
// each run with the full event stream retained. A rewrite of the
// substrate (engine, interconnect) must leave every line unchanged.
// livelock-demo.json is meant to fail, so its error text is pinned
// instead. Run with -update to rewrite the goldens.
func TestEventGoldens(t *testing.T) {
	o := DefaultOptions()
	o.Quick = true
	var cells []scenario.Cell
	for _, e := range All() {
		g, _ := Scenario(e.ID, o)
		cs, err := g.Expand()
		if err != nil {
			t.Fatalf("%s: %v", e.ID, err)
		}
		cells = append(cells, cs...)
	}
	files, err := filepath.Glob("../../scenarios/*.json")
	if err != nil || len(files) == 0 {
		t.Fatalf("no scenario files found: %v", err)
	}
	for _, f := range files {
		cs, err := scenarioFileCells(f)
		if err != nil {
			t.Fatal(err)
		}
		for i := range cs {
			cs[i].Name = filepath.Base(f) + ":" + cs[i].Name
		}
		cells = append(cells, cs...)
	}
	for i := range cells {
		cells[i].Spec.Obs.Stream = true
	}

	res, err := scenario.RunCells("goldens", cells, scenario.RunOptions{Workers: 2, Guard: true})
	if err != nil {
		t.Fatal(err)
	}
	var lines []string
	for _, c := range res.Cells {
		if c.Err != "" && !strings.HasPrefix(c.Name, "livelock-demo.json:") {
			t.Errorf("%s failed: %s", c.Name, c.Err)
		}
		lines = append(lines, goldenLine(c))
	}
	got := strings.Join(lines, "\n") + "\n"
	if *update {
		if err := os.WriteFile(eventGoldens, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	data, err := os.ReadFile(eventGoldens)
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

// scenarioFileCells expands a committed scenario file: a grid (it has
// a "base") into its cells, a spec into one cell named after it.
func scenarioFileCells(path string) ([]scenario.Cell, error) {
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
		g, err := scenario.ParseGrid(data)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		return g.Expand()
	}
	s, err := scenario.ParseSpec(data)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return []scenario.Cell{{Name: s.Name, Spec: *s}}, nil
}

// goldenLine renders one cell's golden line.
func goldenLine(c scenario.CellResult) string {
	if c.Err != "" {
		return c.Name + " error: " + c.Err
	}
	data, err := json.Marshal(struct {
		Summary    scenario.Summary
		Violations []string
	}{c.Summary, c.Violations})
	if err != nil {
		panic(err)
	}
	h := fnv.New64a()
	h.Write(data)
	return fmt.Sprintf("%s %s %016x", c.Name, c.Summary.Digest, h.Sum64())
}
