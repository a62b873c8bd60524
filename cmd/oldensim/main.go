// Command oldensim runs one Olden benchmark at one configuration and
// prints cycles, speedup against the sequential baseline, and the runtime
// statistics behind Tables 2 and 3. It is the one single-run tool: the
// table, record and serving commands all run many configurations.
//
//	oldensim -bench treeadd -procs 8
//	oldensim -bench voronoi -procs 32 -mode migrate-only -scale 8
//	oldensim -bench health -procs 16 -scheme bilateral
//
// -mode and -scheme take the catalog's names (oldenbench -list, oldend's
// GET /benchmarks). With -trace the timed region is recorded on the
// simulation clock and exported in Chrome trace_event JSON (load the file
// in chrome://tracing or ui.perfetto.dev); the trace digest is printed
// either way tracing is on. -profile aggregates the trace into per-site
// and per-page profiles and adds the runtime's per-site mechanism
// counters.
//
//	oldensim -bench em3d -procs 4 -scheme global -trace em3d.json -profile
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"repro/internal/bench"
	"repro/internal/coherence"
	"repro/internal/rt"
	"repro/internal/trace"

	_ "repro/internal/bench/all"
)

func main() {
	name := flag.String("bench", "", "benchmark name ("+strings.Join(bench.Names(), ", ")+")")
	procs := flag.Int("procs", 8, "simulated machine size")
	scale := flag.Int("scale", bench.DefaultScale, "divide the paper's problem size (1 = full)")
	mode := flag.String("mode", "heuristic", "mechanism mode: "+names(rt.Modes()))
	scheme := flag.String("scheme", "local", "coherence scheme: "+names(coherence.Kinds()))
	traceOut := flag.String("trace", "", "record the timed region and write Chrome trace JSON to this file")
	profile := flag.Bool("profile", false, "print per-site and per-page profiles of the timed region")
	traceCap := flag.Int("tracecap", 0, "trace ring capacity in events (0 = default)")
	flag.Parse()

	info, ok := bench.Get(*name)
	if !ok {
		fatalf("unknown benchmark %q (want one of %s)", *name, strings.Join(bench.Names(), ", "))
	}
	cfg, err := configFor(*procs, *scale, *mode, *scheme)
	if err != nil {
		fatalf("%v", err)
	}

	base := info.Run(bench.Config{Baseline: true, Scale: *scale})
	if !base.Verified() {
		fatalf("baseline failed verification: %#x != %#x", base.Check, base.WantCheck)
	}
	var rec *trace.Recorder
	var rtm *rt.Runtime
	if *traceOut != "" || *profile {
		rec = trace.New(*traceCap)
		cfg.Trace = rec
		cfg.RuntimeHook = func(r *rt.Runtime) { rtm = r }
	}
	res := info.Run(cfg)
	status := "verified"
	if !res.Verified() {
		status = fmt.Sprintf("FAILED (%#x != %#x)", res.Check, res.WantCheck)
	}

	fmt.Printf("%s: %s (%s)\n", *name, info.Description, info.PaperSize)
	fmt.Printf("procs=%d scale=1/%d mode=%s scheme=%s\n", *procs, *scale, cfg.Mode, cfg.Scheme)
	fmt.Printf("result: %s\n", status)
	fmt.Printf("sequential baseline: %d cycles\n", base.Cycles)
	fmt.Printf("parallel makespan:   %d cycles  (speedup %.2f)\n",
		res.Cycles, float64(base.Cycles)/float64(res.Cycles))
	s := res.Stats
	fmt.Printf("migrations %d, returns %d, futures %d, pointer tests %d\n",
		s.Migrations, s.Returns, s.Futures, s.PtrTests)
	fmt.Printf("cacheable reads %d (%.2f%% remote), writes %d (%.2f%% remote)\n",
		s.CacheableReads, pct(s.RemoteReads, s.CacheableReads),
		s.CacheableWrites, pct(s.RemoteWrites, s.CacheableWrites))
	fmt.Printf("misses %d (%.2f%% of remote refs), lines fetched %d, pages cached %d\n",
		s.Misses, s.MissPct(), s.LineFetches, res.Pages)
	if rec != nil {
		fmt.Printf("trace digest: %s\n", rec.Digest())
		if *traceOut != "" {
			f, err := os.Create(*traceOut)
			if err != nil {
				fatalf("create trace file: %v", err)
			}
			if err := rec.WriteChrome(f); err != nil {
				fatalf("write trace: %v", err)
			}
			if err := f.Close(); err != nil {
				fatalf("close trace file: %v", err)
			}
			fmt.Printf("trace: %d events written to %s (load in chrome://tracing or ui.perfetto.dev)\n",
				rec.Len(), *traceOut)
		}
		if *profile {
			fmt.Println()
			fmt.Print(rec.Profile().Format(20))
			fmt.Println("\nper-site mechanism counters (runtime view):")
			fmt.Printf("%-28s %-8s %10s %10s %10s %10s\n",
				"site", "mech", "reads", "writes", "remote", "migrations")
			for _, s := range rtm.SiteStats() {
				fmt.Printf("%-28s %-8s %10d %10d %10d %10d\n",
					s.Name, s.Mech, s.Reads, s.Writes, s.Remote, s.Migrations)
			}
		}
	}
	if !res.Verified() {
		os.Exit(1)
	}
}

// configFor turns the name-valued flags into the run configuration,
// through the same parsers the catalog's mode and scheme names come from.
func configFor(procs, scale int, mode, scheme string) (bench.Config, error) {
	m, err := rt.ParseMode(mode)
	if err != nil {
		return bench.Config{}, err
	}
	k, err := coherence.Parse(scheme)
	if err != nil {
		return bench.Config{}, err
	}
	return bench.Config{Procs: procs, Scale: scale, Mode: m, Scheme: k}, nil
}

// names joins an enumeration's printed names for flag help.
func names[T fmt.Stringer](vs []T) string {
	out := make([]string, len(vs))
	for i, v := range vs {
		out[i] = v.String()
	}
	return strings.Join(out, ", ")
}

func pct(a, b int64) float64 {
	if b == 0 {
		return 0
	}
	return 100 * float64(a) / float64(b)
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "oldensim: "+format+"\n", args...)
	os.Exit(1)
}
