package lint

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"testing"
)

var update = flag.Bool("update", false, "rewrite the golden files with the current output")

// checkGolden compares got against testdata/golden/<name>, rewriting
// the file under -update.
func checkGolden(t *testing.T, name, got string) {
	t.Helper()
	path := filepath.Join("testdata", "golden", name)
	if *update {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run `go test ./internal/lint -update` to create it)", err)
	}
	if got != string(want) {
		t.Errorf("%s drifted from its golden file.\n--- got ---\n%s--- want ---\n%s"+
			"(if the change is intentional, regenerate with `go test ./internal/lint -update`)",
			name, got, want)
	}
}

// goldenFindings runs HotAlloc over its fixture — suppressed and
// unsuppressed findings both — and relativizes positions to the module
// root so the golden bytes are machine-independent.
func goldenFindings(t *testing.T) []Finding {
	t.Helper()
	fs := runFixture(t, "hotalloc", "vmp/internal/fixture/hotalloc", HotAlloc)
	root := repoRoot(t)
	out := make([]Finding, len(fs))
	for i, f := range fs {
		rel, err := filepath.Rel(root, f.Pos.Filename)
		if err != nil {
			t.Fatal(err)
		}
		f.Pos.Filename = filepath.ToSlash(rel)
		out[i] = f
	}
	return out
}

func TestWriteSARIFGolden(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteSARIF(&buf, goldenFindings(t)); err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "findings.sarif", buf.String())
}

// TestWriteSARIFValid checks structural invariants the golden bytes
// alone would not explain: the log parses back, every result's
// ruleIndex points at its ruleId, and suppressed findings carry an
// inSource suppression with the //vmplint:allow reason.
func TestWriteSARIFValid(t *testing.T) {
	findings := goldenFindings(t)
	var buf bytes.Buffer
	if err := WriteSARIF(&buf, findings); err != nil {
		t.Fatal(err)
	}
	var log sarifLog
	if err := json.Unmarshal(buf.Bytes(), &log); err != nil {
		t.Fatalf("SARIF output does not parse back: %v", err)
	}
	if log.Version != "2.1.0" || len(log.Runs) != 1 {
		t.Fatalf("version %q, %d runs; want 2.1.0 and 1 run", log.Version, len(log.Runs))
	}
	run := log.Runs[0]
	if len(run.Results) != len(findings) {
		t.Fatalf("%d results for %d findings", len(run.Results), len(findings))
	}
	nSuppressed := 0
	for i, r := range run.Results {
		if r.RuleIndex < 0 || r.RuleIndex >= len(run.Tool.Driver.Rules) ||
			run.Tool.Driver.Rules[r.RuleIndex].ID != r.RuleID {
			t.Errorf("result %d: ruleIndex %d does not resolve to %q", i, r.RuleIndex, r.RuleID)
		}
		if len(r.Suppressions) > 0 {
			nSuppressed++
			if r.Suppressions[0].Kind != "inSource" || r.Suppressions[0].Justification == "" {
				t.Errorf("result %d: malformed suppression %+v", i, r.Suppressions[0])
			}
		}
	}
	if nSuppressed != 1 {
		t.Errorf("%d suppressed results, want the fixture's 1", nSuppressed)
	}
}
