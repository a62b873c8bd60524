package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/analysis"
	"repro/internal/analysis/phases"
	"repro/internal/bench"
)

// The repo-wide convention: every golden-pinning test package takes
// -update to regenerate its goldens (see also internal/core and
// internal/bench), surfaced as `make update-goldens`.
var update = flag.Bool("update", false,
	"rewrite testdata/*.golden from the current tool output")

// runOldenc drives the command through its testable seam.
func runOldenc(t *testing.T, stdin string, args ...string) (stdout, stderr string, code int) {
	t.Helper()
	var out, errb bytes.Buffer
	code = run(args, strings.NewReader(stdin), &out, &errb)
	return out.String(), errb.String(), code
}

// checkGolden compares tool output against testdata/<file>, rewriting it
// under -update.
func checkGolden(t *testing.T, file, got string) {
	t.Helper()
	golden := filepath.Join("testdata", file)
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (regenerate with -update)", err)
	}
	if got != string(want) {
		t.Errorf("output changed for %s:\ngot:\n%s\nwant:\n%s", golden, got, want)
	}
}

// TestAnalyzeGoldens pins the -analyze report over the paper figures and
// the hostile fixture. The output is part of the tool's contract — the
// effect lines are what the phase planner's footprints rest on — so
// changes must be reviewed and regenerated deliberately:
//
//	go test ./cmd/oldenc -run TestAnalyzeGoldens -update
func TestAnalyzeGoldens(t *testing.T) {
	for _, name := range []string{"figure3", "figure4", "figure5", "hostile"} {
		t.Run(name, func(t *testing.T) {
			src := filepath.Join("..", "..", "examples", "minic", name+".c")
			stdout, stderr, code := runOldenc(t, "", "-analyze", src)
			if code != 0 {
				t.Fatalf("exit %d, stderr: %s", code, stderr)
			}
			checkGolden(t, "analyze_"+name+".golden", stdout)
		})
	}
}

// TestPhasesGoldens pins the -phases plan over the same fixtures: the
// slicing, per-phase footprints and invariance verdicts, so any drift
// must be deliberate.
func TestPhasesGoldens(t *testing.T) {
	for _, name := range []string{"figure3", "figure4", "figure5", "hostile"} {
		t.Run(name, func(t *testing.T) {
			src := filepath.Join("..", "..", "examples", "minic", name+".c")
			stdout, stderr, code := runOldenc(t, "", "-phases", src)
			if code != 0 {
				t.Fatalf("exit %d, stderr: %s", code, stderr)
			}
			checkGolden(t, "phases_"+name+".golden", stdout)
		})
	}
}

// TestHostileFixtureRejected pins the acceptance contract on the hostile
// fixture: loops with no progress argument surface as may-not-return, the
// allocating one as allocates, and the phase plan is refused with
// machine-readable reasons.
func TestHostileFixtureRejected(t *testing.T) {
	src := filepath.Join("..", "..", "examples", "minic", "hostile.c")
	for _, c := range []struct {
		mode  string
		wants []string
	}{
		{"-analyze", []string{"pure=false may-not-return allocates\n", "pure=true may-not-return\n"}},
		{"-phases", []string{"  REFUSED: unbounded-steps:"}},
	} {
		stdout, _, code := runOldenc(t, "", c.mode, src)
		if code != 0 {
			t.Fatalf("%s: exit %d", c.mode, code)
		}
		for _, want := range c.wants {
			if !strings.Contains(stdout, want) {
				t.Errorf("%s output missing %q:\n%s", c.mode, want, stdout)
			}
		}
	}
}

// TestLintExitCodes pins the -lint exit contract: 0 for clean programs,
// 0 when only warnings fire, 1 as soon as any error-severity diagnostic
// does.
func TestLintExitCodes(t *testing.T) {
	const clean = `
struct s { int v; struct s *n __affinity(90); };
void f(struct s *p) {
  while (p) {
    p = p->n;
  }
}
`
	const warnOnly = `
struct s { int v; struct s *n __affinity(90); };
void f(struct s *p) { return; }
`
	const hasError = `
struct s { int v; struct s *n __affinity(120); };
void f(struct s *p) {
  while (p) {
    p = p->n;
  }
}
`
	cases := []struct {
		name string
		src  string
		code int
	}{
		{"clean", clean, 0},
		{"warnings-only", warnOnly, 0},
		{"errors", hasError, 1},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			stdout, stderr, code := runOldenc(t, tc.src, "-lint", "-")
			if code != tc.code {
				t.Errorf("exit = %d, want %d\nstdout: %s\nstderr: %s",
					code, tc.code, stdout, stderr)
			}
		})
	}
}

// TestLintJSONSeverity checks that -lint -json carries the severity of
// each diagnostic.
func TestLintJSONSeverity(t *testing.T) {
	const src = `
struct s { int v; struct s *n __affinity(120); };
void f(struct s *p) {
  while (p) {
    p = p->n;
  }
}
`
	stdout, stderr, code := runOldenc(t, src, "-lint", "-json", "-")
	if code != 1 {
		t.Fatalf("exit = %d, want 1; stderr: %s", code, stderr)
	}
	var findings []analysis.Finding
	if err := json.Unmarshal([]byte(stdout), &findings); err != nil {
		t.Fatalf("bad JSON: %v\n%s", err, stdout)
	}
	sawError := false
	for _, f := range findings {
		if f.Severity != "warning" && f.Severity != "error" {
			t.Errorf("finding %v has severity %q", f, f.Severity)
		}
		if f.Severity == "error" {
			sawError = true
		}
	}
	if !sawError {
		t.Errorf("no error-severity finding in %s", stdout)
	}
}

// TestAnalyzeJSONShape checks the -analyze -json findings: the oldenvet
// shape, one effects/summary per function, sorted by position.
func TestAnalyzeJSONShape(t *testing.T) {
	src := filepath.Join("..", "..", "examples", "minic", "hostile.c")
	stdout, stderr, code := runOldenc(t, "", "-analyze", "-json", src)
	if code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, stderr)
	}
	var findings []analysis.Finding
	if err := json.Unmarshal([]byte(stdout), &findings); err != nil {
		t.Fatalf("bad JSON: %v\n%s", err, stdout)
	}
	if len(findings) == 0 {
		t.Fatalf("no findings in %s", stdout)
	}
	for i, f := range findings {
		if f.Check != "effects/summary" {
			t.Errorf("finding %d has check %q, want effects/summary", i, f.Check)
		}
		if f.File == "" || f.Line == 0 {
			t.Errorf("finding %d lacks position: %+v", i, f)
		}
		if i > 0 {
			a, b := findings[i-1], findings[i]
			if a.Line > b.Line || (a.Line == b.Line && a.Col > b.Col) {
				t.Errorf("findings out of order at %d: %+v then %+v", i, a, b)
			}
		}
	}
}

// TestAnalyzeBenchKernels smoke-runs -analyze over every pinned kernel:
// the analysis must terminate and produce an effect summary for each.
func TestAnalyzeBenchKernels(t *testing.T) {
	for _, name := range bench.Names() {
		stdout, stderr, code := runOldenc(t, "", "-analyze", "-bench", name)
		if code != 0 {
			t.Errorf("%s: exit %d, stderr: %s", name, code, stderr)
			continue
		}
		if !strings.Contains(stdout, "  effects: ") {
			t.Errorf("%s: no effect summary in output:\n%s", name, stdout)
		}
	}
}

// TestPhasesJSON decodes the -phases -json plan for the hostile fixture:
// refused, with machine-readable reasons.
func TestPhasesJSON(t *testing.T) {
	src := filepath.Join("..", "..", "examples", "minic", "hostile.c")
	stdout, stderr, code := runOldenc(t, "", "-phases", "-json", src)
	if code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, stderr)
	}
	var plan phases.Plan
	if err := json.Unmarshal([]byte(stdout), &plan); err != nil {
		t.Fatalf("bad JSON: %v\n%s", err, stdout)
	}
	if !plan.Refused || len(plan.Reasons) == 0 {
		t.Fatalf("hostile fixture must be refused with reasons: %+v", plan)
	}
	for _, r := range plan.Reasons {
		if !strings.Contains(r, ":") && r != "no-entry-function" {
			t.Errorf("refusal reason %q is not machine-readable", r)
		}
	}
}

// TestPhasesBenchKernels smoke-runs -phases over every pinned kernel and
// checks the phased benchmarks expose the synthetic build phase.
func TestPhasesBenchKernels(t *testing.T) {
	for _, name := range bench.Names() {
		stdout, stderr, code := runOldenc(t, "", "-phases", "-json", "-bench", name)
		if code != 0 {
			t.Errorf("%s: exit %d, stderr: %s", name, code, stderr)
			continue
		}
		var plan phases.Plan
		if err := json.Unmarshal([]byte(stdout), &plan); err != nil {
			t.Errorf("%s: bad JSON: %v", name, err)
			continue
		}
		info, ok := bench.Get(name)
		if !ok {
			t.Errorf("%s: not registered", name)
			continue
		}
		hasBuild := len(plan.Phases) > 0 && plan.Phases[0].Kind == phases.KindBuild
		if want := info.Phased != nil; hasBuild != want {
			t.Errorf("%s: build phase present=%t, want %t", name, hasBuild, want)
		}
	}
}

// TestModeExclusivity pins the flag contract.
func TestModeExclusivity(t *testing.T) {
	if _, _, code := runOldenc(t, "", "-lint", "-phases", "-bench", "treeadd"); code != 1 {
		t.Errorf("-lint -phases: exit %d, want 1", code)
	}
	if _, _, code := runOldenc(t, "", "-json", "-bench", "treeadd"); code != 1 {
		t.Errorf("bare -json: exit %d, want 1", code)
	}
}
