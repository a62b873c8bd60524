// Command oldenbench regenerates the paper's experiments end-to-end:
//
//	oldenbench -table 1            # benchmark descriptions
//	oldenbench -table 2            # speedups + migrate-only comparison
//	oldenbench -table 3            # caching statistics per coherence scheme
//	oldenbench -figure 2           # list-distribution crossover
//	oldenbench -curve em3d         # one benchmark under all three modes
//
// Tables 2 and 3 and the curves are markdown rendered from the run records
// of the configurations they need (internal/bench/record), Table 2 and the
// curves with the paper's published speedup beside each measured one.
// Problem sizes default to 1/16 of the paper's (Table 1) sizes; pass
// -scale 1 for the full sizes. -procs selects the machine sizes for
// Table 2 and -maxprocs the machine size for Table 3 / Figure 2.
//
// One run at one configuration — cycles, statistics, trace, per-site
// profile — is cmd/oldensim's job.
//
// Persistent records and the pin gate:
//
//	oldenbench -record . -maxprocs 4           # re-pin BENCH_<name>.json in .
//	oldenbench -record out/ -bench em3d        # one benchmark, elsewhere
//	oldenbench -table 2 -json                  # stream RunRecord JSON to stdout
//	oldenbench -report                         # render ./BENCH_*.json
//	oldenbench -report -out report.md
//
// -json moves the human tables to stderr and emits one JSON object per
// benchmark run on stdout, in the order the runs executed. The simulator
// is deterministic, so the gate (make perfgate) is a byte diff: re-record
// the pins in place, and any byte git sees move fails it.
//
// Simulator wall-clock throughput is measured by the repository
// benchmark: `go run -C perf . -workload sim_table`.
//
// -list prints the machine-readable benchmark catalog (names, coherence
// schemes, mechanism modes, default parameters) as JSON — byte-identical
// to oldend's GET /benchmarks, so clients of either can never drift.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"

	"repro/internal/bench"
	"repro/internal/bench/record"
	"repro/internal/coherence"

	_ "repro/internal/bench/all"
)

func main() {
	table := flag.Int("table", 0, "regenerate a table (1, 2 or 3)")
	figure := flag.Int("figure", 0, "regenerate a figure (2)")
	curve := flag.String("curve", "", "print one benchmark's speedup curve (heuristic, migrate-only and cache-only)")
	scale := flag.Int("scale", bench.DefaultScale, "divide the paper's problem sizes by this factor (1 = full size)")
	procsFlag := flag.String("procs", "1,2,4,8,16,32", "machine sizes for Table 2")
	maxProcs := flag.Int("maxprocs", 32, "machine size for Table 3 and Figure 2")
	scheme := flag.String("scheme", "local", "coherence scheme for Table 2: local, global, bilateral")
	benchName := flag.String("bench", "", "with -record: collect only this benchmark")
	jsonOut := flag.Bool("json", false, "emit one RunRecord JSON object per benchmark run on stdout (human output moves to stderr)")
	recordDir := flag.String("record", "", "run the pinned record suite at -maxprocs/-scale and write BENCH_<name>.json files into this directory")
	list := flag.Bool("list", false, "print the machine-readable benchmark catalog (names, schemes, modes, default params) as JSON and exit")
	report := flag.Bool("report", false, "render the pinned ./BENCH_<name>.json baselines as a markdown report")
	reportOut := flag.String("out", "", "with -report: write the markdown report to this file instead of stdout")
	flag.Parse()

	if *list {
		b, err := bench.CatalogJSON()
		if err != nil {
			fatalf("catalog: %v", err)
		}
		os.Stdout.Write(b)
		return
	}
	if *report {
		runReport(*reportOut)
		return
	}

	out := io.Writer(os.Stdout)
	var enc *json.Encoder
	if *jsonOut {
		// Records own stdout; everything human-readable moves aside.
		out, enc = os.Stderr, json.NewEncoder(os.Stdout)
	}

	var procs []int
	for _, f := range strings.Split(*procsFlag, ",") {
		v, err := strconv.Atoi(strings.TrimSpace(f))
		if err != nil || v < 1 || v > 64 {
			fatalf("bad -procs entry %q", f)
		}
		procs = append(procs, v)
	}
	kind, err := coherence.Parse(*scheme)
	if err != nil {
		fatalf("%v", err)
	}

	switch {
	case *recordDir != "":
		runRecordSuite(out, enc, *recordDir, *benchName, *maxProcs, *scale)
	case *table == 1:
		fmt.Fprint(out, bench.Table1())
	case *table == 2:
		files := collect(enc, bench.Names(), bench.Table2Suite(procs, *scale, kind))
		fmt.Fprint(out, record.Table2Markdown(files, procs, kind.String()))
	case *table == 3:
		// Only the migrate-and-cache benchmarks have a Table 3 row.
		names := slices.DeleteFunc(bench.Names(), func(name string) bool {
			info, _ := bench.Get(name)
			return info.Choice != "M+C"
		})
		files := collect(enc, names, bench.Table3Suite(*maxProcs, *scale))
		fmt.Fprint(out, record.Table3Markdown(files, *maxProcs))
	case *figure == 2:
		fmt.Fprint(out, bench.Figure2(4096, *maxProcs))
	case *curve != "":
		files := collect(enc, []string{*curve}, bench.CurveSuite(procs, *scale, kind))
		fmt.Fprint(out, record.CurveMarkdown(files[0], procs, kind.String()))
	default:
		fmt.Fprintln(os.Stderr, "nothing to do: pass -table 1|2|3, -figure 2, -curve <bench>, -record <dir> or -report")
		flag.Usage()
		os.Exit(2)
	}
}

// collect runs suite for each named benchmark and returns the record
// files; under -json (enc non-nil) each file's records are streamed as soon
// as the benchmark is done, in the order they ran.
func collect(enc *json.Encoder, names []string, suite []bench.Config) []record.File {
	var files []record.File
	for _, name := range names {
		f, err := bench.CollectRecords(name, suite)
		if err != nil {
			fatalf("%v", err)
		}
		if enc != nil {
			for _, r := range f.Records {
				if err := enc.Encode(r); err != nil {
					fatalf("encode record: %v", err)
				}
			}
		}
		files = append(files, f)
	}
	return files
}

// runRecordSuite collects the pinned configuration suite for every
// benchmark (or just `only`) and writes one BENCH_<name>.json per
// benchmark into dir.
func runRecordSuite(out io.Writer, enc *json.Encoder, dir, only string, procs, scale int) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		fatalf("record dir: %v", err)
	}
	names := bench.Names()
	if only != "" {
		names = []string{only}
	}
	for _, name := range names {
		f := collect(enc, []string{name}, bench.PinnedSuite(procs, scale))[0]
		if err := f.Save(dir); err != nil {
			fatalf("save %s: %v", name, err)
		}
		base, _ := f.Lookup("baseline")
		heur, _ := f.Lookup(record.HeuristicKey(procs, "local"))
		fmt.Fprintf(out, "%-12s pinned: baseline %d cycles, P=%d %d cycles -> %s\n",
			name, base.Cycles, procs, heur.Cycles, filepath.Join(dir, record.Filename(name)))
	}
}

// runReport renders the pinned ./BENCH_*.json as the markdown report.
func runReport(outPath string) {
	files, err := record.LoadDir(".")
	if err != nil {
		fatalf("%v", err)
	}
	report := record.Report(files)
	if outPath == "" {
		fmt.Print(report)
	} else if err := os.WriteFile(outPath, []byte(report), 0o644); err != nil {
		fatalf("%v", err)
	}
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "oldenbench: "+format+"\n", args...)
	os.Exit(1)
}
