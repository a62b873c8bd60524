// Command oldenbench regenerates the paper's experiments end-to-end:
//
//	oldenbench -table 1            # benchmark descriptions
//	oldenbench -table 2            # speedups + migrate-only comparison
//	oldenbench -table 3            # caching statistics per coherence scheme
//	oldenbench -figure 2           # list-distribution crossover
//
// Problem sizes default to 1/16 of the paper's (Table 1) sizes; pass
// -scale 1 for the full sizes. -procs selects the machine sizes for
// Table 2 and -maxprocs the machine size for Table 3 / Figure 2.
//
// One run at one configuration — cycles, statistics, trace, per-site
// profile — is cmd/oldensim's job.
//
// Persistent records and the perf gate:
//
//	oldenbench -update -maxprocs 4             # re-pin BENCH_<name>.json in .
//	oldenbench -record out/ -maxprocs 4        # same suite, elsewhere
//	oldenbench -record out/ -bench em3d        # ... for one benchmark only
//	oldenbench -table 2 -json                  # stream RunRecord JSON to stdout
//
// -json moves the human tables to stderr and emits one JSON object per
// benchmark run on stdout; cmd/oldenreport renders and gates the pinned
// files.
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
	benchName := flag.String("bench", "", "with -record/-update: collect only this benchmark")
	jsonOut := flag.Bool("json", false, "emit one RunRecord JSON object per benchmark run on stdout (human output moves to stderr)")
	recordDir := flag.String("record", "", "run the pinned record suite at -maxprocs/-scale and write BENCH_<name>.json files into this directory")
	update := flag.Bool("update", false, "shorthand for -record . : re-pin the committed BENCH_<name>.json baselines")
	list := flag.Bool("list", false, "print the machine-readable benchmark catalog (names, schemes, modes, default params) as JSON and exit")
	flag.Parse()

	if *list {
		b, err := bench.CatalogJSON()
		if err != nil {
			fatalf("catalog: %v", err)
		}
		os.Stdout.Write(b)
		return
	}

	out := io.Writer(os.Stdout)
	if *jsonOut {
		// Records own stdout; everything human-readable moves aside.
		out = os.Stderr
		enc := json.NewEncoder(os.Stdout)
		bench.SetRunObserver(func(r record.RunRecord) {
			if err := enc.Encode(r); err != nil {
				fatalf("encode record: %v", err)
			}
		})
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
	case *update || *recordDir != "":
		dir := *recordDir
		if *update {
			dir = "."
		}
		runRecordSuite(out, dir, *benchName, *maxProcs, *scale)
	case *table == 1:
		fmt.Fprint(out, bench.Table1())
	case *table == 2:
		s, err := bench.Table2(procs, *scale, kind)
		fmt.Fprint(out, s)
		if err != nil {
			fatalf("table 2: %v", err)
		}
	case *table == 3:
		s, err := bench.Table3(*maxProcs, *scale)
		fmt.Fprint(out, s)
		if err != nil {
			fatalf("table 3: %v", err)
		}
	case *figure == 2:
		fmt.Fprint(out, bench.Figure2(4096, *maxProcs))
	case *curve != "":
		s, err := bench.Curve(*curve, procs, *scale, kind)
		fmt.Fprint(out, s)
		if err != nil {
			fatalf("curve: %v", err)
		}
	default:
		fmt.Fprintln(os.Stderr, "nothing to do: pass -table 1|2|3, -figure 2, -curve <bench>, -record <dir> or -update")
		flag.Usage()
		os.Exit(2)
	}
}

// runRecordSuite collects the pinned configuration suite for every
// benchmark (or just `only`) and writes one BENCH_<name>.json per
// benchmark into dir.
func runRecordSuite(out io.Writer, dir, only string, procs, scale int) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		fatalf("record dir: %v", err)
	}
	names := bench.Names()
	if only != "" {
		if _, ok := bench.Get(only); !ok {
			fatalf("unknown benchmark %q (want one of %s)", only, strings.Join(bench.Names(), ", "))
		}
		names = []string{only}
	}
	for _, name := range names {
		f, err := bench.CollectRecords(name, procs, scale)
		if err != nil {
			fatalf("record %s: %v", name, err)
		}
		if err := f.Save(dir); err != nil {
			fatalf("save %s: %v", name, err)
		}
		base, _ := f.Lookup("baseline")
		heur, _ := f.Lookup(record.HeuristicKey(procs, "local"))
		fmt.Fprintf(out, "%-12s pinned: baseline %d cycles, P=%d %d cycles (S=%.2f) -> %s\n",
			name, base.Cycles, procs, heur.Cycles,
			float64(base.Cycles)/float64(heur.Cycles),
			filepath.Join(dir, record.Filename(name)))
	}
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "oldenbench: "+format+"\n", args...)
	os.Exit(1)
}
