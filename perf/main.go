// Command perf is the repository's benchmark: one wall-clock ledger from
// the router hop down to the simulated cache line. It measures every layer
// from outside, by timing calls into the layer's exported functions, and
// changes nothing outside its own directory. See README.md.
//
//	go run -C perf .                                  every workload, untraced then traced
//	go run -C perf . -workload serve_hot -seed 3      one workload's end-to-end metrics
//	go run -C perf . -workload serve_hot -trace 1     the same workload's per-layer metrics
//
// The last line of standard output is one JSON object: correct, attempted,
// failed and the metrics by name. The exit status is non-zero when any
// output check failed.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"sort"
	"strconv"
	"strings"
	"time"

	"repro/perf/load"
)

func main() {
	var j job
	var trace int
	var spawned int64
	flag.StringVar(&j.Workload, "workload", "", "workload to run (default: all of them, untraced and traced)")
	flag.Int64Var(&j.Seed, "seed", 1, "seed of the generated request lists")
	flag.Float64Var(&j.Seconds, "seconds", defaultSeconds, "how long one run measures")
	flag.IntVar(&trace, "trace", 0, "0: end-to-end metrics, tracing off; 1: per-layer metrics from a traced pass and the probes")
	flag.StringVar(&j.OutDir, "out", "out", "directory the traced pass writes trace-<workload>.json to")
	flag.StringVar(&j.Kind, "child", "", "internal: run one repeat of this kind and print its result")
	flag.Int64Var(&spawned, "spawned", 0, "internal: when the parent started this child, Unix ns")
	flag.Parse()
	if flag.NArg() > 0 || j.Seconds <= 0 || trace < 0 || trace > 1 {
		flag.Usage()
		os.Exit(2)
	}
	j.sz = fullSizes()

	if j.Kind != "" {
		if spawned != 0 {
			j.Spawned = time.Unix(0, spawned)
		}
		if err := json.NewEncoder(os.Stdout).Encode(j.run()); err != nil {
			fatalf("%v", err)
		}
		return
	}

	names := []string{j.Workload}
	traces := []bool{trace == 1}
	single := j.Workload != ""
	if !single {
		names, traces = nil, []bool{false, true}
		for _, w := range workloads {
			names = append(names, w.Name)
		}
	} else if !knownWorkload(j.Workload) {
		fatalf("unknown workload %q", j.Workload)
	}
	ok := true
	var last report
	seen := map[string]string{} // identities across workloads
	for _, name := range names {
		for _, traced := range traces {
			j.Workload = name
			rep, err := measure(j, traced, spawn)
			if err != nil {
				fatalf("%s: %v", name, err)
			}
			rep.crossCheck(seen)
			rep.print(os.Stdout)
			ok = ok && rep.correct()
			last = rep
		}
	}
	if single {
		fmt.Println(last.resultLine())
	} else {
		fmt.Printf(`{"correct": %t}`+"\n", ok)
	}
	if !ok {
		os.Exit(1)
	}
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "perf: "+format+"\n", args...)
	os.Exit(1)
}

func knownWorkload(name string) bool {
	for _, w := range workloads {
		if w.Name == name {
			return true
		}
	}
	return false
}

// spawn runs one repeat in a child process of this same program — fresh
// heap, fresh lazily built state, its own peak RSS — and waits for it.
func spawn(j job) (repeatResult, error) {
	exe, err := os.Executable()
	if err != nil {
		return repeatResult{}, err
	}
	ctx, cancel := context.WithTimeout(context.Background(), childTimeout)
	defer cancel()
	cmd := exec.CommandContext(ctx, exe,
		"-child", j.Kind, "-workload", j.Workload, "-out", j.OutDir,
		"-seed", strconv.FormatInt(j.Seed, 10),
		"-seconds", strconv.FormatFloat(j.Seconds, 'g', -1, 64),
		"-spawned", strconv.FormatInt(time.Now().UnixNano(), 10))
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return repeatResult{}, fmt.Errorf("%s repeat: %w", j.Kind, err)
	}
	var res repeatResult
	if err := json.Unmarshal(out, &res); err != nil {
		return repeatResult{}, fmt.Errorf("%s repeat: unreadable result: %w", j.Kind, err)
	}
	return res, nil
}

// measure runs one workload's repeats through do and aggregates them.
// Untraced: fresh-state repeats of the timed pass — a fixed number of
// windows, or passes until they have measured -seconds — each reporting the
// end-to-end metrics. Traced: one per-layer repeat and the probes.
func measure(j job, traced bool, do func(job) (repeatResult, error)) (report, error) {
	rep := report{workload: j.Workload, seed: j.Seed, traced: traced, specs: endToEnd}
	if traced {
		rep.specs = perLayer
		for _, kind := range []string{"layers", "probes"} {
			j.Kind = kind
			res, err := do(j)
			if err != nil {
				return rep, err
			}
			if kind == "layers" {
				rep.repeats = append(rep.repeats, res)
				continue
			}
			rep.probes = res.Metrics
			if j.Workload == "serve_cold" || strings.HasPrefix(j.Workload, "sim_") {
				// No router in these workloads' path: nothing of the
				// cluster layer applies to them, its probe included.
				for name := range rep.probes {
					if strings.HasPrefix(name, "cluster.") {
						delete(rep.probes, name)
					}
				}
			}
		}
		return rep, nil
	}
	j.Kind = "e2e"
	fixed, isWindowed := windowed(j.Workload)
	for measured := 0.0; ; {
		res, err := do(j)
		if err != nil {
			return rep, err
		}
		rep.repeats = append(rep.repeats, res)
		measured += res.Measured
		// Passes stop at the repeat that lands nearest -seconds.
		if n := len(rep.repeats); isWindowed && n >= fixed || !isWindowed && n >= minRepeats && measured+res.Measured/2 >= j.Seconds {
			return rep, nil
		}
	}
}

// report is one workload's aggregated outcome.
type report struct {
	workload string
	seed     int64
	traced   bool
	specs    []metricSpec
	repeats  []repeatResult
	probes   map[string]value
	extra    []string // problems found across repeats or workloads
}

// figure is one metric over the repeats: the median, with the extremes.
type figure struct {
	median, min, max float64
	repeats, n       int
}

func (r report) figure(name string) (figure, bool) {
	if v, ok := r.probes[name]; ok {
		return figure{v.V, v.V, v.V, 1, v.N}, true
	}
	var vs []float64
	n := 0
	for _, rep := range r.repeats {
		if v, ok := rep.Metrics[name]; ok {
			vs = append(vs, v.V)
			n = v.N
		}
	}
	if len(vs) == 0 {
		return figure{}, false
	}
	sort.Float64s(vs)
	return figure{load.Median(vs), vs[0], vs[len(vs)-1], len(vs), n}, true
}

// problems lists every failed output check: each repeat's own, and
// disagreement between repeats about what a configuration computes.
func (r report) problems() []string {
	out := append([]string(nil), r.extra...)
	ids := map[string]string{}
	for i, rep := range r.repeats {
		for _, p := range rep.Problems {
			out = append(out, fmt.Sprintf("repeat %d: %s", i+1, p))
		}
		for key, id := range rep.Identity {
			if prev, ok := ids[key]; ok && prev != id {
				out = append(out, fmt.Sprintf("%s: %s in one repeat, %s in another", key, prev, id))
			}
			ids[key] = id
		}
	}
	if !r.traced {
		for _, s := range r.specs {
			if f, ok := r.figure(s.Name); !ok || f.repeats != len(r.repeats) {
				out = append(out, fmt.Sprintf("%s: not reported by every repeat", s.Name))
			}
		}
	}
	return out
}

// crossCheck compares this workload's identities with those of workloads
// run before it in the same invocation: sim_table, serve_cold and
// serve_batch share configurations and must agree on them.
func (r *report) crossCheck(seen map[string]string) {
	for _, rep := range r.repeats {
		for key, id := range rep.Identity {
			if prev, ok := seen[key]; ok && prev != id {
				r.extra = append(r.extra, fmt.Sprintf("%s: %s here, %s in an earlier workload", key, id, prev))
			}
			seen[key] = id
		}
	}
}

func (r report) totals() (attempted, failed int) {
	for _, rep := range r.repeats {
		attempted += rep.Attempted
		failed += rep.Failed
	}
	return attempted, failed
}

func (r report) correct() bool {
	_, failed := r.totals()
	return failed == 0 && len(r.problems()) == 0
}

// print writes the workload's metrics by name, with unit, spread and
// sample count; a metric that does not apply to the workload is left out.
func (r report) print(w io.Writer) {
	pass := "end-to-end, tracing off"
	if r.traced {
		pass = "per-layer, traced pass and probes"
	}
	attempted, failed := r.totals()
	fmt.Fprintf(w, "\n== %s  (%s; seed %d; %d repeat(s); %d attempted, %d failed)\n",
		r.workload, pass, r.seed, len(r.repeats), attempted, failed)
	// The untraced repeats measure the median latency and peak RSS too;
	// they are printed, though only the end-to-end metrics go in the result
	// line.
	for _, s := range append(append([]metricSpec(nil), endToEnd...), perLayer...) {
		f, ok := r.figure(s.Name)
		if _, declared := specIn(r.specs, s.Name); !ok || r.traced && !declared {
			continue
		}
		fmt.Fprintf(w, "  %-40s %14.6g %-9s", s.Name, f.median, s.Unit)
		if f.repeats > 1 {
			fmt.Fprintf(w, " min %.6g max %.6g over %d repeats;", f.min, f.max, f.repeats)
		}
		fmt.Fprintf(w, " n=%d\n", f.n)
	}
	if probs := r.problems(); len(probs) > 0 {
		fmt.Fprintf(w, "  FAILED output checks:\n    %s\n", strings.Join(probs, "\n    "))
	} else {
		fmt.Fprintf(w, "  output checks passed\n")
	}
}

// resultLine is the contract's last line: every metric of the pass by
// name. A per-layer metric that does not apply to the workload reads 0.
func (r report) resultLine() string {
	type metric struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	attempted, failed := r.totals()
	out := struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{r.correct(), max(attempted, 1), failed, map[string]metric{}}
	for _, s := range r.specs {
		f, _ := r.figure(s.Name)
		out.Metrics[s.Name] = metric{f.median, s.Unit}
	}
	b, err := json.Marshal(out)
	if err != nil {
		panic(err)
	}
	return string(b)
}
