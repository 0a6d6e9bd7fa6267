// Command vmplint runs the repository's determinism and discipline
// analyzers (internal/lint) over Go packages and fails on any
// unsuppressed diagnostic. Run it from the module root:
//
//	go run ./cmd/vmplint ./...
//
// A diagnostic is suppressed by an adjacent comment
//
//	//vmplint:allow <rule> <reason>
//
// with a mandatory reason; reasonless and stale suppressions are
// themselves diagnostics. Exit status: 0 clean, 1 findings, 2 usage or
// load error.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"vmp/internal/lint"
)

func main() {
	list := flag.Bool("list", false, "list the analyzers and the invariant each guards")
	rules := flag.String("rules", "", "comma-separated rule subset to run (default: all; suppression auditing needs all)")
	suppressed := flag.Bool("suppressed", false, "also print suppressed findings with their reasons")
	sarifOut := flag.Bool("sarif", false, "emit all findings as a SARIF 2.1.0 log on stdout (for code-scanning upload)")
	audit := flag.Bool("audit", false, "report only the suppression audit: unknown rules, missing reasons, stale //vmplint:allow comments")
	flag.Usage = func() {
		fmt.Fprintf(flag.CommandLine.Output(), "usage: vmplint [flags] [packages]\n\n"+
			"Runs the repo's determinism/discipline analyzers over the given\n"+
			"package patterns (default ./...; run from the module root).\n\n")
		flag.PrintDefaults()
	}
	flag.Parse()

	if *list {
		for _, a := range lint.All() {
			fmt.Printf("%-12s %s\n", a.Name, a.Doc)
		}
		return
	}

	analyzers := lint.All()
	if *rules != "" {
		if *audit {
			fmt.Fprintln(os.Stderr, "vmplint: -audit needs the full suite; drop -rules")
			os.Exit(2)
		}
		var err error
		analyzers, err = lint.ByName(*rules)
		if err != nil {
			fmt.Fprintln(os.Stderr, "vmplint:", err)
			os.Exit(2)
		}
	}

	patterns := flag.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	wd, err := os.Getwd()
	if err != nil {
		fmt.Fprintln(os.Stderr, "vmplint:", err)
		os.Exit(2)
	}
	loader, err := lint.NewLoader(wd, patterns...)
	if err != nil {
		fmt.Fprintln(os.Stderr, "vmplint:", err)
		os.Exit(2)
	}
	pkgs, err := loader.Load()
	if err != nil {
		fmt.Fprintln(os.Stderr, "vmplint:", err)
		os.Exit(2)
	}

	findings := lint.Run(pkgs, analyzers)
	relativize(findings, wd)

	if *audit {
		// Audit mode: only the suppression meta-rule counts. Clean code
		// with a rotten //vmplint:allow must still fail, and real
		// findings are the default mode's business.
		failed := false
		for _, f := range findings {
			if f.Rule != "vmplint" {
				continue
			}
			failed = true
			fmt.Println(f)
		}
		if failed {
			fmt.Fprintln(os.Stderr, "vmplint: stale or malformed suppressions above; remove or repair them")
			os.Exit(1)
		}
		fmt.Printf("vmplint: suppression audit clean across %d package(s)\n", len(pkgs))
		return
	}

	failed := false
	nSuppressed := 0
	for _, f := range findings {
		if f.Suppressed {
			nSuppressed++
			continue
		}
		failed = true
	}

	if *sarifOut {
		if err := lint.WriteSARIF(os.Stdout, findings); err != nil {
			fmt.Fprintln(os.Stderr, "vmplint:", err)
			os.Exit(2)
		}
	} else {
		for _, f := range findings {
			if !f.Suppressed || *suppressed {
				fmt.Println(f)
			}
		}
	}

	if failed {
		fmt.Fprintln(os.Stderr, "vmplint: findings above; fix them or add //vmplint:allow <rule> <reason> where the code is right")
		os.Exit(1)
	}
	if !*sarifOut {
		fmt.Printf("vmplint: %d package(s) clean (%d suppression(s) in effect)\n", len(pkgs), nSuppressed)
	}
}

// relativize rewrites absolute finding paths to be relative to the
// working directory, so text output is readable and SARIF URIs resolve
// against %SRCROOT% in code-scanning.
func relativize(findings []lint.Finding, wd string) {
	for i, f := range findings {
		if rel, err := filepath.Rel(wd, f.Pos.Filename); err == nil && !strings.HasPrefix(rel, "..") {
			findings[i].Pos.Filename = filepath.ToSlash(rel)
		}
	}
}
