package lint

import (
	"path/filepath"
	"regexp"
	"runtime"
	"sort"
	"strings"
	"sync"
	"testing"
)

// repoRoot locates the module root from this file's compile-time path.
func repoRoot(t *testing.T) string {
	t.Helper()
	_, file, _, ok := runtime.Caller(0)
	if !ok {
		t.Fatal("runtime.Caller failed")
	}
	return filepath.Dir(filepath.Dir(filepath.Dir(file)))
}

var (
	loaderOnce sync.Once
	loader     *Loader
	loaderErr  error
)

// testLoader lists the whole module once (plus the stdlib packages the
// fixtures import) and shares the loader across tests.
func testLoader(t *testing.T) *Loader {
	t.Helper()
	root := repoRoot(t)
	loaderOnce.Do(func() {
		loader, loaderErr = NewLoader(root, "./...", "context", "fmt", "math/rand", "os", "sort", "sync", "sync/atomic", "time")
	})
	if loaderErr != nil {
		t.Fatalf("loading module: %v", loaderErr)
	}
	return loader
}

// runFixture typechecks testdata/src/<name> under importPath (the
// pretend path decides which analyzers' Match applies), runs the
// analyzers, and checks the findings against `// want "regex"`
// comments: every unsuppressed finding must match a want on its line,
// and every want must be matched by exactly one finding.
func runFixture(t *testing.T, name, importPath string, analyzers ...*Analyzer) []Finding {
	t.Helper()
	l := testLoader(t)
	dir := filepath.Join(repoRoot(t), "internal", "lint", "testdata", "src", name)
	pkg, err := l.CheckDir(dir, importPath)
	if err != nil {
		t.Fatalf("typechecking fixture %s: %v", name, err)
	}
	findings := Run([]*Package{pkg}, analyzers)
	checkWants(t, pkg, findings)
	return findings
}

var wantRE = regexp.MustCompile(`// want "([^"]+)"`)

type wantEntry struct {
	file string
	line int
	re   *regexp.Regexp
	hit  bool
}

// checkWants matches unsuppressed findings against the fixture's want
// comments.
func checkWants(t *testing.T, pkg *Package, findings []Finding) {
	t.Helper()
	var wants []*wantEntry
	for _, f := range pkg.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				m := wantRE.FindStringSubmatch(c.Text)
				if m == nil {
					continue
				}
				re, err := regexp.Compile(m[1])
				if err != nil {
					t.Fatalf("bad want regexp %q: %v", m[1], err)
				}
				pos := pkg.Fset.Position(c.Pos())
				wants = append(wants, &wantEntry{file: pos.Filename, line: pos.Line, re: re})
			}
		}
	}
	for _, f := range findings {
		if f.Suppressed {
			continue
		}
		matched := false
		for _, w := range wants {
			if !w.hit && w.file == f.Pos.Filename && w.line == f.Pos.Line && w.re.MatchString(f.Message) {
				w.hit = true
				matched = true
				break
			}
		}
		if !matched {
			t.Errorf("unexpected finding: %s", f)
		}
	}
	sort.Slice(wants, func(i, j int) bool {
		if wants[i].file != wants[j].file {
			return wants[i].file < wants[j].file
		}
		return wants[i].line < wants[j].line
	})
	for _, w := range wants {
		if !w.hit {
			t.Errorf("%s:%d: want %q matched no finding", w.file, w.line, w.re)
		}
	}
}

// suppressedOnly filters findings down to the suppressed ones.
func suppressedOnly(fs []Finding) []Finding {
	var out []Finding
	for _, f := range fs {
		if f.Suppressed {
			out = append(out, f)
		}
	}
	return out
}

func TestSimClock(t *testing.T) {
	fs := runFixture(t, "simclock", "vmp/internal/cache", SimClock)
	got := suppressedOnly(fs)
	if len(got) != 1 || !strings.Contains(got[0].Reason, "host-cost measurement") {
		t.Errorf("want 1 suppressed finding with the fixture reason, got %v", got)
	}
}

func TestMapOrder(t *testing.T) {
	fs := runFixture(t, "maporder", "vmp/internal/fixture/maporder", MapOrder)
	if got := suppressedOnly(fs); len(got) != 1 {
		t.Errorf("want 1 suppressed finding, got %v", got)
	}
}

func TestAmbientState(t *testing.T) {
	fs := runFixture(t, "ambientstate", "vmp/internal/memory", AmbientState)
	if got := suppressedOnly(fs); len(got) != 1 {
		t.Errorf("want 1 suppressed finding, got %v", got)
	}
}

func TestCanonJSON(t *testing.T) {
	fs := runFixture(t, "canonjson", "vmp/internal/scenario", CanonJSON)
	if got := suppressedOnly(fs); len(got) != 1 {
		t.Errorf("want 1 suppressed finding, got %v", got)
	}
}

func TestLockDisc(t *testing.T) {
	fs := runFixture(t, "lockdisc", "vmp/internal/fixture/lockdisc", LockDisc)
	got := suppressedOnly(fs)
	if len(got) != 1 || !strings.Contains(got[0].Reason, "ownership transfers") {
		t.Errorf("want 1 suppressed finding with the handoff reason, got %v", got)
	}
}

func TestHotAlloc(t *testing.T) {
	fs := runFixture(t, "hotalloc", "vmp/internal/fixture/hotalloc", HotAlloc)
	got := suppressedOnly(fs)
	if len(got) != 1 || !strings.Contains(got[0].Reason, "amortized zero-alloc") {
		t.Errorf("want 1 suppressed finding with the free-list reason, got %v", got)
	}
}

func TestAtomicCheck(t *testing.T) {
	fs := runFixture(t, "atomiccheck", "vmp/internal/fixture/atomiccheck", AtomicCheck)
	got := suppressedOnly(fs)
	if len(got) != 1 || !strings.Contains(got[0].Reason, "memory-mapped") {
		t.Errorf("want 1 suppressed finding with the shared-mapping reason, got %v", got)
	}
}

func TestLeakCheck(t *testing.T) {
	fs := runFixture(t, "leakcheck", "vmp/internal/fixture/leakcheck", LeakCheck)
	got := suppressedOnly(fs)
	if len(got) != 1 || !strings.Contains(got[0].Reason, "process-lifetime") {
		t.Errorf("want 1 suppressed finding with the watcher reason, got %v", got)
	}
}

func TestDetSrc(t *testing.T) {
	fs := runFixture(t, "detsrc", "vmp/internal/fixture/detsrc", DetSrc)
	got := suppressedOnly(fs)
	if len(got) != 1 || !strings.Contains(got[0].Reason, "build stamp") {
		t.Errorf("want 1 suppressed finding with the build-stamp reason, got %v", got)
	}
}

// TestSuppressionAudit runs the full suite so the annotation audit is
// active: unknown rules, missing reasons, and stale suppressions are
// diagnostics themselves.
func TestSuppressionAudit(t *testing.T) {
	l := testLoader(t)
	dir := filepath.Join(repoRoot(t), "internal", "lint", "testdata", "src", "suppress")
	pkg, err := l.CheckDir(dir, "vmp/internal/fixture/suppress")
	if err != nil {
		t.Fatal(err)
	}
	fs := Run([]*Package{pkg}, All())
	wantMsgs := []string{
		`names unknown rule "nosuchrule"`,
		"has no reason",
		"suppresses nothing",
	}
	if len(fs) != len(wantMsgs) {
		t.Fatalf("want %d audit findings, got %d: %v", len(wantMsgs), len(fs), fs)
	}
	for i, want := range wantMsgs {
		if fs[i].Rule != "vmplint" || !strings.Contains(fs[i].Message, want) {
			t.Errorf("finding %d = %s, want rule vmplint containing %q", i, fs[i], want)
		}
	}
}

func TestByName(t *testing.T) {
	as, err := ByName("simclock, canonjson")
	if err != nil || len(as) != 2 || as[0].Name != "simclock" || as[1].Name != "canonjson" {
		t.Errorf("ByName = %v, %v", as, err)
	}
	if _, err := ByName("nope"); err == nil {
		t.Error("ByName(nope) succeeded, want error")
	}
}

// TestRepoIsClean is the suite's self-test: the full analyzer set over
// the whole module must come back clean, with every suppression
// carrying a reason and still suppressing something.
func TestRepoIsClean(t *testing.T) {
	if testing.Short() {
		t.Skip("typechecks the whole module")
	}
	l := testLoader(t)
	pkgs, err := l.Load()
	if err != nil {
		t.Fatal(err)
	}
	fs := Run(pkgs, All())
	for _, f := range Unsuppressed(fs) {
		t.Errorf("vmplint: %s", f)
	}
}
