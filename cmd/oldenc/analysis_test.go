package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/analysis/effects"
	"repro/internal/analysis/phases"
	"repro/internal/bench"
	"repro/internal/core"
)

// The repo-wide convention: every golden-pinning test package takes
// -update to regenerate its goldens, surfaced as `make update-goldens`.
var update = flag.Bool("update", false,
	"rewrite testdata/*.golden from the current analysis output")

// minicSource reads examples/minic/<name>.c.
func minicSource(t *testing.T, name string) string {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("..", "..", "examples", "minic", name+".c"))
	if err != nil {
		t.Fatal(err)
	}
	return string(data)
}

// analyze runs the effect analysis under the default parameters oldenc
// compiles with.
func analyze(t *testing.T, src string) *effects.Result {
	t.Helper()
	res, err := effects.AnalyzeSource(src, core.DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// effectsReport renders every function's effect summary, two lines each.
func effectsReport(res *effects.Result) string {
	var b strings.Builder
	for _, s := range res.Summaries {
		fmt.Fprintf(&b, "func %s(%s):\n", s.Name, strings.Join(s.Params, ","))
		fmt.Fprintf(&b, "  effects: %s\n", s.EffectsLine())
	}
	return b.String()
}

// TestAnalyzeGoldens pins the effect summaries of the paper figures and
// the hostile fixture — the facts the phase planner's footprints rest on —
// so changes must be reviewed and regenerated deliberately:
//
//	go test ./cmd/oldenc -run TestAnalyzeGoldens -update
func TestAnalyzeGoldens(t *testing.T) {
	for _, name := range []string{"figure3", "figure4", "figure5", "hostile"} {
		t.Run(name, func(t *testing.T) {
			got := effectsReport(analyze(t, minicSource(t, name)))
			golden := filepath.Join("testdata", "analyze_"+name+".golden")
			if *update {
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
		})
	}
}

// TestHostileFixtureRejected pins the acceptance contract on the hostile
// fixture: loops with no progress argument surface as may-not-return, the
// allocating one as allocates, and the phase plan is refused with
// machine-readable reasons.
func TestHostileFixtureRejected(t *testing.T) {
	res := analyze(t, minicSource(t, "hostile"))
	report := effectsReport(res)
	for _, want := range []string{"pure=false may-not-return allocates\n", "pure=true may-not-return\n"} {
		if !strings.Contains(report, want) {
			t.Errorf("effect summaries missing %q:\n%s", want, report)
		}
	}
	plan := phases.Compute(res, phases.Options{}).String()
	if want := "  REFUSED: unbounded-steps:"; !strings.Contains(plan, want) {
		t.Errorf("phase plan missing %q:\n%s", want, plan)
	}
}

// TestAnalyzeBenchKernels runs the effect analysis over every pinned
// kernel: it must terminate and produce an effect summary for each.
func TestAnalyzeBenchKernels(t *testing.T) {
	for _, name := range bench.Names() {
		info, _ := bench.Get(name)
		if report := effectsReport(analyze(t, info.Source)); !strings.Contains(report, "  effects: ") {
			t.Errorf("%s: no effect summary in output:\n%s", name, report)
		}
	}
}

// TestPhasesJSON round-trips the hostile fixture's plan through its JSON
// form: refused, with machine-readable reasons.
func TestPhasesJSON(t *testing.T) {
	data, err := json.Marshal(phases.Compute(analyze(t, minicSource(t, "hostile")), phases.Options{}))
	if err != nil {
		t.Fatal(err)
	}
	var plan phases.Plan
	if err := json.Unmarshal(data, &plan); err != nil {
		t.Fatalf("bad JSON: %v\n%s", err, data)
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

// TestPhasesBenchKernels plans every pinned kernel and checks the phased
// benchmarks expose the synthetic build phase.
func TestPhasesBenchKernels(t *testing.T) {
	for _, name := range bench.Names() {
		info, ok := bench.Get(name)
		if !ok {
			t.Errorf("%s: not registered", name)
			continue
		}
		// A kernel runs under the harness, whose build happens before
		// virtual time starts; phased benchmarks expose it as a synthetic
		// invariant phase.
		plan := phases.Compute(analyze(t, info.Source), phases.Options{IncludeBuild: info.Phased != nil})
		hasBuild := len(plan.Phases) > 0 && plan.Phases[0].Kind == phases.KindBuild
		if want := info.Phased != nil; hasBuild != want {
			t.Errorf("%s: build phase present=%t, want %t", name, hasBuild, want)
		}
	}
}
