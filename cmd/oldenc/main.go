// Command oldenc runs the Olden compile-time analysis on a mini-C program:
// update matrices, induction variables, and the two-pass mechanism
// selection heuristic (paper §4).
//
//	oldenc prog.c             # analyze a source file
//	oldenc -                  # analyze standard input
//	oldenc -bench treeadd     # analyze a benchmark's kernel
//	oldenc -threshold 80 prog.c
//	oldenc -lint prog.c       # lint diagnostics (exit 1 on errors)
//	oldenc -lint -json prog.c # diagnostics as analysis.Finding JSON
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"

	"repro/internal/analysis"
	"repro/internal/bench"
	_ "repro/internal/bench/all"
	"repro/internal/core"
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
	lint := fs.Bool("lint", false, "emit lint diagnostics instead of the analysis report (exit 1 on errors)")
	jsonOut := fs.Bool("json", false, "with -lint, emit the diagnostics as analysis.Finding JSON")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	fail := func(format string, fargs ...any) int {
		fmt.Fprintf(stderr, "oldenc: "+format+"\n", fargs...)
		return 1
	}
	if *jsonOut && !*lint {
		return fail("-json requires -lint")
	}

	var src string
	file := ""
	switch {
	case *benchName != "":
		info, ok := bench.Get(*benchName)
		if !ok {
			return fail("unknown benchmark %q", *benchName)
		}
		src = info.Source
		file = "bench:" + *benchName
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
		fmt.Fprintln(stderr, "usage: oldenc [-threshold N] [-affinity N] [-sites] [-lint [-json]] <file.c | - | -bench name>")
		return 2
	}

	params := olden.Params{
		Threshold:       float64(*threshold) / 100,
		DefaultAffinity: float64(*defAff) / 100,
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
		fmt.Fprint(stdout, core.LintString(diags))
	}
	for _, d := range diags {
		if d.Sev == olden.DiagError {
			return 1
		}
	}
	return 0
}
