// Command oldenreport renders the pinned benchmark baselines
// (BENCH_<name>.json, written by `oldenbench -update`) as a
// markdown report — the reproduction's Table 2 and Table 3, each row
// annotated with the delta against the paper's published speedups — and
// gates candidate record sets against the pinned ones.
//
//	oldenreport                          # render ./BENCH_*.json
//	oldenreport -against old/            # Δ-prev columns vs an older pin set
//	oldenreport -candidate new/          # gate new/ against ./BENCH_*.json
//	oldenreport -candidate new/ -tol-cycles 0.02 -out report.md
//
// In gate mode the exit status is 1 when any configuration regressed
// beyond tolerance; the simulator is deterministic, so the default zero
// tolerance passes byte-identical reruns and fails any slowdown at all.
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/bench/record"
)

func main() {
	dir := flag.String("dir", ".", "directory holding the pinned BENCH_<name>.json baselines")
	against := flag.String("against", "", "older baseline set for the Δ-prev columns")
	candidate := flag.String("candidate", "", "candidate record set to gate against -dir (exit 1 on regression)")
	procs := flag.Int("procs", 0, "machine size to render (0 = infer from the records)")
	tolCycles := flag.Float64("tol-cycles", 0, "allowed fractional cycle increase (0.02 = 2%)")
	tolMiss := flag.Float64("tol-miss", 0, "allowed absolute miss-percentage increase in points")
	out := flag.String("out", "", "write the markdown report to this file instead of stdout")
	flag.Parse()

	base, err := record.LoadDir(*dir)
	if err != nil {
		fatalf("%v", err)
	}

	var report string
	var regs []record.Regression
	tol := record.Tolerance{CyclesFrac: *tolCycles, MissPctAbs: *tolMiss}
	switch {
	case *candidate != "":
		cand, err := record.LoadDir(*candidate)
		if err != nil {
			fatalf("%v", err)
		}
		regs, err = record.CompareDirs(base, cand, tol)
		if err != nil {
			fatalf("%v", err)
		}
		// The candidate is the report's subject; the pins are "prev".
		report = record.Report(cand, base, renderProcs(*procs, cand), regs)
	case *against != "":
		prev, err := record.LoadDir(*against)
		if err != nil {
			fatalf("%v", err)
		}
		report = record.Report(base, prev, renderProcs(*procs, base), nil)
	default:
		report = record.Report(base, nil, renderProcs(*procs, base), nil)
	}

	if *out != "" {
		if err := os.WriteFile(*out, []byte(report), 0o644); err != nil {
			fatalf("%v", err)
		}
	} else {
		fmt.Print(report)
	}

	if len(regs) > 0 {
		fmt.Fprintf(os.Stderr, "oldenreport: %d regression(s) beyond tolerance:\n", len(regs))
		for _, r := range regs {
			fmt.Fprintf(os.Stderr, "  %s\n", r)
		}
		os.Exit(1)
	}
}

// renderProcs infers the machine size the records were collected at when
// the flag leaves it to us: the first parallel record names it.
func renderProcs(flagProcs int, files []record.File) int {
	if flagProcs > 0 {
		return flagProcs
	}
	for _, f := range files {
		for _, r := range f.Records {
			if !r.Baseline {
				return r.Procs
			}
		}
	}
	return 4
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "oldenreport: "+format+"\n", args...)
	os.Exit(1)
}
