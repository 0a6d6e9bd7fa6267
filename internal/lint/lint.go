// Package lint is vmplint: a suite of repo-specific static analyzers
// that mechanically enforce the simulator's determinism and discipline
// invariants — the properties PRs 1-4 established by hand-audit and
// diff tests (byte-identical serial==parallel runs, fingerprint ⇒
// identical results, no ambient state in instrumented packages, a
// drift-proof canonical-JSON contract).
//
// The suite mirrors the golang.org/x/tools/go/analysis architecture
// (Analyzer + Pass + positional diagnostics) but is self-contained:
// the build environment vendors no third-party modules, so packages
// are loaded through `go list -export` and typechecked with the
// standard library's gc export-data importer (see load.go). Each
// analyzer is a pure function of one typechecked package.
//
// A diagnostic is suppressed by an adjacent comment of the form
//
//	//vmplint:allow <rule> <reason>
//
// on the same line as the offending code or on the line(s) directly
// above it. The reason is mandatory: a suppression without one is
// itself a diagnostic, and so is a suppression that no longer
// suppresses anything — annotations cannot rot silently.
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// An Analyzer checks one invariant over one typechecked package.
type Analyzer struct {
	// Name is the rule name used in output and in //vmplint:allow
	// comments.
	Name string
	// Doc is a one-paragraph description of the invariant the rule
	// guards, shown by `vmplint -list`.
	Doc string
	// Match reports whether the analyzer applies to the package with
	// the given import path. A nil Match applies everywhere.
	Match func(pkgPath string) bool
	// Run inspects the package and reports diagnostics through the
	// pass.
	Run func(*Pass)
}

// A Pass connects one Analyzer run to one loaded package.
type Pass struct {
	Analyzer *Analyzer
	Fset     *token.FileSet
	Files    []*ast.File
	Pkg      *types.Package
	Info     *types.Info

	diags []diag
}

type diag struct {
	pos     token.Pos
	rule    string
	message string
}

// Reportf records a diagnostic at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.diags = append(p.diags, diag{pos: pos, rule: p.Analyzer.Name, message: fmt.Sprintf(format, args...)})
}

// A Finding is one resolved diagnostic: position, rule, message, and
// whether a //vmplint:allow comment suppressed it (and why).
type Finding struct {
	Pos        token.Position
	Rule       string
	Message    string
	Suppressed bool
	// Reason is the justification from the suppressing comment, set
	// only when Suppressed.
	Reason string
}

func (f Finding) String() string {
	s := fmt.Sprintf("%s:%d:%d: %s: %s", f.Pos.Filename, f.Pos.Line, f.Pos.Column, f.Rule, f.Message)
	if f.Suppressed {
		s += fmt.Sprintf(" (suppressed: %s)", f.Reason)
	}
	return s
}

// sortFindings orders findings by file, line, column, rule, message —
// the loader typechecks packages in a deterministic order but analyzer
// internals iterate maps, so output order is pinned here.
func sortFindings(fs []Finding) {
	sort.Slice(fs, func(i, j int) bool {
		a, b := fs[i], fs[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		if a.Rule != b.Rule {
			return a.Rule < b.Rule
		}
		return a.Message < b.Message
	})
}

// All returns the full analyzer suite in its canonical order: the four
// syntax-local passes from v1, then the five analyzers from v2. Four of
// those run on the dataflow layer; atomiccheck is a one-pass rule, so
// the suite has five syntax-local rules and four dataflow analyzers.
func All() []*Analyzer {
	return []*Analyzer{
		SimClock, MapOrder, AmbientState, CanonJSON,
		DetSrc, LockDisc, AtomicCheck, HotAlloc, LeakCheck,
	}
}

// ByName resolves a comma-separated rule list against the suite.
func ByName(names string) ([]*Analyzer, error) {
	var out []*Analyzer
	for _, name := range strings.Split(names, ",") {
		name = strings.TrimSpace(name)
		if name == "" {
			continue
		}
		found := false
		for _, a := range All() {
			if a.Name == name {
				out = append(out, a)
				found = true
				break
			}
		}
		if !found {
			return nil, fmt.Errorf("unknown rule %q", name)
		}
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("no rules selected")
	}
	return out, nil
}

// simCorePackages are the simulation-core packages: everything that
// runs inside a deterministic simulation and therefore may not consult
// wall clocks, ambient randomness or the process environment
// (simclock), and may not grow package-level mutable state
// (ambientstate).
var simCorePackages = map[string]bool{
	"sim": true, "bus": true, "cache": true, "monitor": true,
	"copier": true, "core": true, "fault": true, "memory": true,
	"vm": true, "kernel": true, "isa": true, "workload": true,
	"scenario": true, "obs": true, "check": true,
}

// isSimCore reports whether pkgPath is one of the simulation-core
// packages.
func isSimCore(pkgPath string) bool {
	const prefix = "vmp/internal/"
	if !strings.HasPrefix(pkgPath, prefix) {
		return false
	}
	return simCorePackages[strings.TrimPrefix(pkgPath, prefix)]
}
