package analysis

import (
	"encoding/json"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"strings"
	"sync"
	"testing"
)

var (
	loaderOnce sync.Once
	loaderVal  *Loader
	loaderErr  error
)

// repoLoader builds one Loader for the repository root, shared by every
// test (the go list run behind it is the expensive part).
func repoLoader(t *testing.T) *Loader {
	t.Helper()
	loaderOnce.Do(func() {
		loaderVal, loaderErr = NewLoader("../..")
	})
	if loaderErr != nil {
		t.Fatalf("NewLoader: %v", loaderErr)
	}
	return loaderVal
}

// The whole repository — benchmarks, examples, tests, commands — obeys
// its own contracts: the suite self-hosts with zero findings.
func TestSelfHostZeroFindings(t *testing.T) {
	l := repoLoader(t)
	pkgs, err := l.Load("./...")
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	if len(pkgs) < 20 {
		t.Fatalf("loaded only %d packages; expected the full module", len(pkgs))
	}
	findings := Run(pkgs)
	for _, f := range findings {
		t.Errorf("unexpected finding: %s", f)
	}
}

// nonTestImports returns the import paths of the non-test Go files of the
// package in dir, keyed by file name.
func nonTestImports(t *testing.T, dir string) map[string][]string {
	t.Helper()
	pkgs, err := parser.ParseDir(token.NewFileSet(), dir,
		func(fi fs.FileInfo) bool { return !strings.HasSuffix(fi.Name(), "_test.go") },
		parser.ImportsOnly)
	if err != nil {
		t.Fatalf("parse %s: %v", dir, err)
	}
	out := map[string][]string{}
	for _, pkg := range pkgs {
		for name, f := range pkg.Files {
			for _, imp := range f.Imports {
				out[name] = append(out[name], strings.Trim(imp.Path.Value, `"`))
			}
		}
	}
	return out
}

// A run is one thread of control that owns its state (DESIGN.md §13), so
// the packages a simulated operation passes through import no
// synchronisation: a lock or atomic there guards nothing and costs every
// load and store.
func TestSimulatorPackagesImportNoSync(t *testing.T) {
	for _, dir := range []string{"mem", "machine", "coherence", "cache", "rt", "trace"} {
		for name, imps := range nonTestImports(t, filepath.Join("..", dir)) {
			for _, imp := range imps {
				if imp == "sync" || imp == "sync/atomic" {
					t.Errorf("%s imports %s: run state has one owner and needs no lock; sharing is real only in internal/metrics (the server's registry) and the serving packages — synchronise there",
						name, imp)
				}
			}
		}
	}
}

// The contract checker reads Go source and runs nothing: it imports the
// standard library alone, so no check can reach the simulator, the
// benchmarks or a goroutine pool. Claims about what a kernel does when it
// runs belong in internal/bench's battery, where the kernels run.
func TestAnalysisImportsStandardLibraryOnly(t *testing.T) {
	for name, imps := range nonTestImports(t, ".") {
		for _, imp := range imps {
			if imp == "sync" || imp == "sync/atomic" || strings.HasPrefix(imp, "repro/") {
				t.Errorf("%s imports %s: internal/analysis checks source and types only; assert runtime claims in internal/bench", name, imp)
			}
		}
	}
}

// The serving layer decides build reuse with bench.Info.BuildKey and
// compiles no mini-C: nothing internal/server or internal/cluster imports,
// directly or transitively, is the mini-C front end or its analyses.
func TestServingImportsNoMiniC(t *testing.T) {
	compiler := map[string]bool{}
	for _, p := range []string{"lang", "core", "analysis/effects", "analysis/phases"} {
		compiler["repro/internal/"+p] = true
	}
	from := map[string]string{} // package -> the package that imports it
	queue := []string{"repro/internal/server", "repro/internal/cluster"}
	for _, p := range queue {
		from[p] = ""
	}
	for len(queue) > 0 {
		pkg := queue[0]
		queue = queue[1:]
		for _, imps := range nonTestImports(t, filepath.Join("..", "..", strings.TrimPrefix(pkg, "repro/"))) {
			for _, imp := range imps {
				if _, seen := from[imp]; seen || !strings.HasPrefix(imp, "repro/") {
					continue
				}
				from[imp] = pkg
				queue = append(queue, imp)
			}
		}
	}
	for p := range compiler {
		if by, ok := from[p]; ok {
			t.Errorf("%s is reachable from the serving layer (imported by %s): reuse decisions belong to bench.Info.BuildKey", p, by)
		}
	}
}

// The negative fixture fires the heap-escape check, each finding with a
// position.
func TestFixturesFire(t *testing.T) {
	cases := []struct {
		dir   string
		check string
		min   int // minimum findings expected
	}{
		{"badescape", "heap-escape", 4},
	}
	l := repoLoader(t)
	for _, c := range cases {
		t.Run(c.dir, func(t *testing.T) {
			p, err := l.LoadDir(filepath.Join("testdata", c.dir))
			if err != nil {
				t.Fatalf("LoadDir: %v", err)
			}
			findings := Run([]*Package{p})
			if len(findings) < c.min {
				t.Fatalf("got %d findings, want at least %d: %v", len(findings), c.min, findings)
			}
			for _, f := range findings {
				if f.Check != c.check {
					t.Errorf("finding from unexpected check %q: %s", f.Check, f)
				}
				if f.Line == 0 || f.File == "" {
					t.Errorf("finding without a position: %+v", f)
				}
			}
		})
	}
}

// Specific diagnostics the fixtures must produce, by message fragment.
func TestFixtureMessages(t *testing.T) {
	l := repoLoader(t)
	wants := map[string][]string{
		"badescape": {
			"unpacks a global pointer to a raw integer",
			"gaddr method Proc",
			"call to gaddr.Pack",
			"arithmetic on a global pointer",
		},
	}
	for dir, fragments := range wants {
		p, err := l.LoadDir(filepath.Join("testdata", dir))
		if err != nil {
			t.Fatalf("LoadDir(%s): %v", dir, err)
		}
		findings := Run([]*Package{p})
		for _, frag := range fragments {
			found := false
			for _, f := range findings {
				if strings.Contains(f.Message, frag) {
					found = true
					break
				}
			}
			if !found {
				t.Errorf("%s: no finding mentions %q; got %v", dir, frag, findings)
			}
		}
	}
}

// Findings marshal to the JSON shape oldenc -lint -json emits.
func TestFindingJSON(t *testing.T) {
	f := Finding{Check: "heap-escape", File: "x.go", Line: 3, Col: 7, Message: "m"}
	b, err := json.Marshal(f)
	if err != nil {
		t.Fatal(err)
	}
	want := `{"check":"heap-escape","file":"x.go","line":3,"col":7,"message":"m"}`
	if string(b) != want {
		t.Fatalf("JSON = %s; want %s", b, want)
	}
	if got := f.String(); got != "x.go:3:7: m [heap-escape]" {
		t.Fatalf("String = %q", got)
	}
}
