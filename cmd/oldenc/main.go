// Command oldenc runs the Olden compile-time analysis on a mini-C program:
// update matrices, induction variables, and the two-pass mechanism
// selection heuristic (paper §4).
//
//	oldenc prog.c             # analyze a source file
//	oldenc -                  # analyze standard input
//	oldenc -bench treeadd     # analyze a benchmark's kernel
//	oldenc -threshold 80 prog.c
//	oldenc -lint prog.c       # lint diagnostics (exit 1 on errors)
//	oldenc -lint -json prog.c # diagnostics in the oldenvet -json shape
//	oldenc -analyze prog.c    # interprocedural effect summaries
//	oldenc -analyze -json prog.c
//	oldenc -phases prog.c     # phase plan: slicing, footprints, invariance
//	oldenc -phases -json -bench em3d
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"repro/internal/analysis"
	"repro/internal/analysis/effects"
	"repro/internal/analysis/phases"
	"repro/internal/bench"
	_ "repro/internal/bench/all"
	"repro/olden"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdin, os.Stdout, os.Stderr))
}

// run is the whole command behind a testable seam: it parses args, reads
// the program, and writes the chosen report, returning the exit code.
func run(args []string, stdin io.Reader, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("oldenc", flag.ContinueOnError)
	fs.SetOutput(stderr)
	benchName := fs.String("bench", "", "analyze a benchmark kernel instead of a file")
	threshold := fs.Int("threshold", 90, "migration threshold in percent")
	defAff := fs.Int("affinity", 70, "default path-affinity in percent")
	sites := fs.Bool("sites", false, "also list every dereference site with its mechanism")
	interproc := fs.Bool("interprocedural", false, "enable the return-value path extension (the paper's future work)")
	lint := fs.Bool("lint", false, "emit lint diagnostics instead of the analysis report (exit 1 on errors)")
	analyzeF := fs.Bool("analyze", false, "emit interprocedural effect summaries")
	phasesF := fs.Bool("phases", false, "emit the phase plan: slicing, footprints and scheme-invariance verdicts")
	jsonOut := fs.Bool("json", false, "with -lint, -analyze or -phases, emit the machine-readable form")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	fail := func(format string, fargs ...any) int {
		fmt.Fprintf(stderr, "oldenc: "+format+"\n", fargs...)
		return 1
	}
	modes := 0
	for _, on := range []bool{*lint, *analyzeF, *phasesF} {
		if on {
			modes++
		}
	}
	if modes > 1 {
		return fail("-lint, -analyze and -phases are mutually exclusive")
	}
	if *jsonOut && modes == 0 {
		return fail("-json requires -lint, -analyze or -phases")
	}

	var src string
	file := ""
	includeBuild := false
	switch {
	case *benchName != "":
		info, ok := bench.Get(*benchName)
		if !ok {
			return fail("unknown benchmark %q", *benchName)
		}
		src = info.Source
		file = "bench:" + *benchName
		// A benchmark kernel runs under the harness, whose build happens
		// before virtual time starts; phased benchmarks expose it as a
		// synthetic invariant phase.
		includeBuild = info.Phased != nil
	case fs.NArg() == 1 && fs.Arg(0) == "-":
		data, err := io.ReadAll(stdin)
		if err != nil {
			return fail("reading stdin: %v", err)
		}
		src = string(data)
		file = "<stdin>"
	case fs.NArg() == 1:
		data, err := os.ReadFile(fs.Arg(0))
		if err != nil {
			return fail("%v", err)
		}
		src = string(data)
		file = fs.Arg(0)
	default:
		fmt.Fprintln(stderr, "usage: oldenc [-threshold N] [-affinity N] [-lint | -analyze | -phases] [-json] <file.c | - | -bench name>")
		return 2
	}

	params := olden.Params{
		Threshold:              float64(*threshold) / 100,
		DefaultAffinity:        float64(*defAff) / 100,
		InterproceduralReturns: *interproc,
	}

	if *analyzeF {
		res, err := effects.AnalyzeSource(src, params)
		if err != nil {
			return fail("%v", err)
		}
		return writeAnalysis(stdout, stderr, res, file, *jsonOut)
	}

	if *phasesF {
		res, err := effects.AnalyzeSource(src, params)
		if err != nil {
			return fail("%v", err)
		}
		plan := phases.Compute(res, phases.Options{IncludeBuild: includeBuild})
		return writePhases(stdout, stderr, plan, *jsonOut)
	}

	report, err := olden.AnalyzeWith(src, params)
	if err != nil {
		return fail("%v", err)
	}
	if *lint {
		return writeLint(stdout, stderr, report.Lint(), file, *jsonOut)
	}
	fmt.Fprint(stdout, report)
	if *sites {
		fmt.Fprintln(stdout)
		fmt.Fprint(stdout, report.SitesString())
	}
	if report.UsesMigrationOnly() {
		fmt.Fprintln(stdout, "overall: migration only (an \"M\" program)")
	} else {
		fmt.Fprintln(stdout, "overall: migration + caching (an \"M+C\" program)")
	}
	return 0
}

// writeLint prints the diagnostics; exit 1 when any is an error.
func writeLint(stdout, stderr io.Writer, diags []olden.Diag, file string, jsonOut bool) int {
	if jsonOut {
		findings := make([]analysis.Finding, 0, len(diags))
		for _, d := range diags {
			sev := "warning"
			if d.Sev == olden.DiagError {
				sev = "error"
			}
			findings = append(findings, analysis.Finding{
				Check:    d.Code,
				File:     file,
				Line:     d.Pos.Line,
				Col:      d.Pos.Col,
				Message:  d.Msg,
				Severity: sev,
			})
		}
		enc := json.NewEncoder(stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(findings); err != nil {
			fmt.Fprintf(stderr, "oldenc: %v\n", err)
			return 1
		}
	} else {
		for _, d := range diags {
			fmt.Fprintln(stdout, d)
		}
	}
	for _, d := range diags {
		if d.Sev == olden.DiagError {
			return 1
		}
	}
	return 0
}

// writeAnalysis prints the effect summary of every function; with jsonOut
// it emits them as findings in the oldenvet shape instead.
func writeAnalysis(stdout, stderr io.Writer, res *effects.Result, file string, jsonOut bool) int {
	if jsonOut {
		findings := make([]analysis.Finding, 0, len(res.Summaries))
		for _, s := range res.Summaries {
			findings = append(findings, analysis.Finding{
				Check: "effects/summary", File: file, Line: s.Pos.Line, Col: s.Pos.Col,
				Message: fmt.Sprintf("%s: %s", s.Name, s.EffectsLine()),
			})
		}
		enc := json.NewEncoder(stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(findings); err != nil {
			fmt.Fprintf(stderr, "oldenc: %v\n", err)
			return 1
		}
		return 0
	}
	for _, s := range res.Summaries {
		fmt.Fprintf(stdout, "func %s(%s):\n", s.Name, strings.Join(s.Params, ","))
		fmt.Fprintf(stdout, "  effects: %s\n", s.EffectsLine())
	}
	return 0
}

// writePhases prints the phase plan; with jsonOut it emits the Plan
// itself — the machine-readable artifact CI uploads.
func writePhases(stdout, stderr io.Writer, plan *phases.Plan, jsonOut bool) int {
	if jsonOut {
		enc := json.NewEncoder(stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(plan); err != nil {
			fmt.Fprintf(stderr, "oldenc: %v\n", err)
			return 1
		}
		return 0
	}
	fmt.Fprint(stdout, plan)
	return 0
}
