// Command oldenvet checks Go code against the runtime-API contracts of
// this repository: thread confinement in Spawn closures, rt.Site naming
// hygiene, future touch discipline and the opacity of global heap
// pointers (see internal/analysis). It reads source and types only and
// runs nothing.
//
//	oldenvet ./...                      # vet the whole module
//	oldenvet ./internal/bench/...       # vet a subtree
//	oldenvet -json ./...                # machine-readable findings
//	oldenvet internal/analysis/testdata/badsites   # vet a fixture dir
//
// Exits 0 when no findings, 1 when contracts are violated, 2 on usage
// or load errors.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"repro/internal/analysis"
)

func main() {
	jsonOut := flag.Bool("json", false, "emit findings as JSON")
	flag.Parse()

	args := flag.Args()
	if len(args) == 0 {
		args = []string{"./..."}
	}

	// Directory arguments under a testdata tree are invisible to the go
	// tool; load them directly.  Everything else is a package pattern.
	var patterns, fixtureDirs []string
	for _, a := range args {
		if st, err := os.Stat(a); err == nil && st.IsDir() &&
			strings.Contains(filepath.ToSlash(a), "testdata") {
			fixtureDirs = append(fixtureDirs, a)
			continue
		}
		patterns = append(patterns, a)
	}

	loader, err := analysis.NewLoader(".")
	if err != nil {
		fatalf("%v", err)
	}
	var pkgs []*analysis.Package
	if len(patterns) > 0 {
		ps, err := loader.Load(patterns...)
		if err != nil {
			fatalf("%v", err)
		}
		pkgs = append(pkgs, ps...)
	}
	for _, dir := range fixtureDirs {
		p, err := loader.LoadDir(dir)
		if err != nil {
			fatalf("%v", err)
		}
		pkgs = append(pkgs, p)
	}

	findings := analysis.Run(pkgs)
	cwd, _ := os.Getwd()
	for i := range findings {
		if rel, err := filepath.Rel(cwd, findings[i].File); err == nil && !strings.HasPrefix(rel, "..") {
			findings[i].File = rel
		}
	}

	if *jsonOut {
		if findings == nil {
			findings = []analysis.Finding{}
		}
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(findings); err != nil {
			fatalf("%v", err)
		}
	} else {
		for _, f := range findings {
			fmt.Println(f)
		}
		if len(findings) > 0 {
			fmt.Fprintf(os.Stderr, "oldenvet: %d finding(s)\n", len(findings))
		}
	}
	if len(findings) > 0 {
		os.Exit(1)
	}
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "oldenvet: "+format+"\n", args...)
	os.Exit(2)
}
