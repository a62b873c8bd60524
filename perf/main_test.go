package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/format"
	"io/fs"
	"maps"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"regexp"
	"slices"
	"strings"
	"testing"

	"repro/internal/analysis"
	"repro/internal/bench"
)

var (
	legalName = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	legalUnit = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

// inProcess runs a repeat in the test's own process instead of a child.
// The probes do not depend on the workload, so they run once.
func inProcess() func(job) (repeatResult, error) {
	var probes *repeatResult
	return func(j job) (repeatResult, error) {
		if j.Kind != "probes" {
			return j.run(), nil
		}
		if probes == nil {
			res := j.run()
			probes = &res
		}
		res := *probes
		res.Metrics = maps.Clone(res.Metrics) // measure deletes from it
		return res, nil
	}
}

// TestSmoke drives every workload, untraced and traced, and every probe at
// a tiny size, and holds the output to the benchmark contract: output
// checks pass, the result line carries exactly the declared metrics with
// legal names and units, every end-to-end metric is positive on every
// workload, and every per-layer metric is reported by some workload.
func TestSmoke(t *testing.T) {
	reported := map[string]bool{}
	seen := map[string]string{}
	do := inProcess()
	for _, w := range workloads {
		for _, traced := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/traced=%v", w.Name, traced), func(t *testing.T) {
				j := job{Workload: w.Name, Seed: 7, Seconds: 0.4, OutDir: t.TempDir(), sz: smokeSizes()}
				rep, err := measure(j, traced, do)
				if err != nil {
					t.Fatal(err)
				}
				rep.crossCheck(seen)
				if !rep.correct() {
					t.Errorf("output checks failed:\n%s", strings.Join(rep.problems(), "\n"))
				}
				var line struct {
					Correct   bool `json:"correct"`
					Attempted int  `json:"attempted"`
					Failed    int  `json:"failed"`
					Metrics   map[string]struct {
						Value float64 `json:"value"`
						Unit  string  `json:"unit"`
					} `json:"metrics"`
				}
				dec := json.NewDecoder(strings.NewReader(rep.resultLine()))
				dec.DisallowUnknownFields()
				if err := dec.Decode(&line); err != nil {
					t.Fatalf("result line: %v", err)
				}
				if !line.Correct || line.Attempted < 1 || line.Failed != 0 {
					t.Errorf("correct=%v attempted=%d failed=%d", line.Correct, line.Attempted, line.Failed)
				}
				if len(line.Metrics) != len(rep.specs) {
					t.Errorf("%d metrics in the result line, %d declared", len(line.Metrics), len(rep.specs))
				}
				noRouter := w.Name == "serve_cold" || strings.HasPrefix(w.Name, "sim_")
				for _, s := range rep.specs {
					m, ok := line.Metrics[s.Name]
					if !ok || m.Unit != s.Unit {
						t.Errorf("%s: missing or unit %q, want %q", s.Name, m.Unit, s.Unit)
					}
					if !traced && !(m.Value > 0) {
						t.Errorf("end-to-end metric %s is %v; must be positive on every workload", s.Name, m.Value)
					}
					if _, ok := rep.figure(s.Name); ok {
						reported[s.Name] = true
						if noRouter && strings.HasPrefix(s.Name, "cluster.") {
							t.Errorf("reports %s, but has no router in its path", s.Name)
						}
					}
				}
				if traced {
					if _, err := os.Stat(filepath.Join(j.OutDir, "trace-"+w.Name+".json")); err != nil {
						t.Errorf("no trace file: %v", err)
					}
				}
			})
		}
	}
	// What the smoke sizes cannot reach: the eight kernels they leave out,
	// and the p95 of queue wait, which needs 200 misses.
	beyond := func(name string) bool {
		if name == "server.queue_wait_us_p95" {
			return true
		}
		for _, k := range bench.Names() {
			if !slices.Contains(smokeSizes().kernels, k) && strings.HasSuffix(name, "."+k) {
				return true
			}
		}
		return false
	}
	for _, s := range append(append([]metricSpec(nil), endToEnd...), perLayer...) {
		if !reported[s.Name] && !beyond(s.Name) {
			t.Errorf("%s is declared but no workload reports it", s.Name)
		}
	}
}

// TestSpecIsLegalAndMatchesBenchmarkJSON holds the metric and workload
// names to the contract's limits, and BENCHMARK.json to the program.
func TestSpecIsLegalAndMatchesBenchmarkJSON(t *testing.T) {
	type jsonMetric struct {
		Name   string   `json:"name"`
		Unit   string   `json:"unit"`
		Better string   `json:"better"`
		Bound  *float64 `json:"bound,omitempty"`
	}
	type jsonWorkload struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	}
	var want struct {
		Command    []string       `json:"command"`
		Paths      []string       `json:"paths"`
		RunSeconds int            `json:"run_seconds"`
		Workloads  []jsonWorkload `json:"workloads"`
		EndToEnd   []jsonMetric   `json:"end_to_end"`
		PerLayer   []jsonMetric   `json:"per_layer"`
	}
	want.Command = []string{"go", "run", "-C", "perf", "."}
	want.Paths = []string{"perf"}
	want.RunSeconds = defaultSeconds
	used := map[string]bool{}
	name := func(n string) {
		if !legalName.MatchString(n) || used[n] {
			t.Errorf("name %q is illegal or used twice", n)
		}
		used[n] = true
	}
	for _, w := range workloads {
		name(w.Name)
		if len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("%s: why must be one line of at most 200 characters", w.Name)
		}
		want.Workloads = append(want.Workloads, jsonWorkload(w))
	}
	setup := false
	for _, s := range endToEnd {
		name(s.Name)
		if !legalUnit.MatchString(s.Unit) || s.Bound <= 0 || s.Bound > 0.25 {
			t.Errorf("%s: unit %q bound %v", s.Name, s.Unit, s.Bound)
		}
		setup = setup || s == metricSpec{"setup_s", "s", "lower", s.Bound}
		b := s.Bound
		want.EndToEnd = append(want.EndToEnd, jsonMetric{s.Name, s.Unit, s.Better, &b})
	}
	if !setup {
		t.Error("no setup_s end-to-end metric in seconds, lower is better")
	}
	for _, s := range perLayer {
		name(s.Name)
		if !legalUnit.MatchString(s.Unit) || s.Bound != 0 {
			t.Errorf("%s: unit %q bound %v", s.Name, s.Unit, s.Bound)
		}
		want.PerLayer = append(want.PerLayer, jsonMetric{s.Name, s.Unit, s.Better, nil})
	}
	if n := len(perLayer); n < 1 || n > 128 {
		t.Errorf("%d per-layer metrics; the contract allows 1 to 128", n)
	}

	b, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	got := want
	got.Command, got.Paths, got.Workloads, got.EndToEnd, got.PerLayer = nil, nil, nil, nil, nil
	dec := json.NewDecoder(bytes.NewReader(b))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&got); err != nil {
		t.Fatalf("BENCHMARK.json: %v", err)
	}
	if !reflect.DeepEqual(got, want) {
		wb, _ := json.MarshalIndent(want, "", "  ")
		t.Errorf("BENCHMARK.json does not match the program; the program says:\n%s", wb)
	}
}

// TestSourceHygiene holds perf/ to the repository's own gates: gofmt,
// go vet, and the runtime-API contracts oldenvet checks.
func TestSourceHygiene(t *testing.T) {
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() || !strings.HasSuffix(path, ".go") {
			return err
		}
		src, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		if out, err := format.Source(src); err != nil || !bytes.Equal(out, src) {
			t.Errorf("%s: not gofmt-clean (%v)", path, err)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if out, err := exec.Command("go", "vet", "./...").CombinedOutput(); err != nil {
		t.Errorf("go vet ./...: %v\n%s", err, out)
	}
	loader, err := analysis.NewLoader(".")
	if err != nil {
		t.Fatal(err)
	}
	pkgs, err := loader.Load("./...")
	if err != nil {
		t.Fatal(err)
	}
	if loader.Mod != "repro" {
		t.Errorf("oldenvet resolved the runtime packages under module %q; its checks look for repro/internal/rt", loader.Mod)
	}
	for _, f := range analysis.Run(pkgs) {
		t.Errorf("oldenvet: %s", f)
	}
}
