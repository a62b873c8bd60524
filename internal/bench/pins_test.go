package bench_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"path/filepath"
	"reflect"
	"slices"
	"testing"

	"repro/internal/bench"
	"repro/internal/bench/record"
	"repro/internal/coherence"
)

// pinProcs and pinScale are the machine size and problem scale of the
// committed BENCH_*.json parallel records (`make bench`).
const pinProcs, pinScale = 4, 16

// pinKernels are the kernels whose parallel pins tier-1 re-runs under all
// three schemes: treeadd, bisort and em3d, a migrate-only, a caching and a
// read-only caching kernel, and power and mst, which with treeadd are the
// kernels whose phase plan certifies (kernel_claims_test.go).
var pinKernels = []string{"treeadd", "power", "mst", "bisort", "em3d"}

// pinConfig is the pinned parallel configuration under scheme.
func pinConfig(scheme coherence.Kind) bench.Config {
	return bench.Config{Procs: pinProcs, Scale: pinScale, Scheme: scheme}
}

// TestPinsReproduce re-runs the pinned P=4 heuristic configurations of
// pinKernels and requires each record to equal its committed BENCH record
// in every field: cycles, stats, pages, metrics and trace digest. On a
// mismatch it names the JSON fields that moved. `make perfgate` re-records
// all ten files; this is the slice of it that tier-1 runs.
func TestPinsReproduce(t *testing.T) {
	for _, name := range pinKernels {
		path := filepath.Join("../..", record.Filename(name))
		f, err := record.Load(path)
		if err != nil {
			t.Fatal(err)
		}
		for _, s := range schemes {
			got := shared(t, name, pinConfig(s)).rec
			want, ok := f.Lookup(got.Key())
			if !ok {
				t.Errorf("%s has no record %q", record.Filename(name), got.Key())
				continue
			}
			if !reflect.DeepEqual(got, want) {
				t.Errorf("%s [%s] moved (re-pin with make bench):%s", record.Filename(name), got.Key(), movedJSON(t, got, want))
			}
		}
	}
}

// movedJSON lists, one per line, the JSON fields of got that differ from
// want's, as dotted paths with both values.
func movedJSON(t *testing.T, got, want record.RunRecord) string {
	t.Helper()
	asMap := func(r record.RunRecord) map[string]any {
		b, err := json.Marshal(r)
		if err != nil {
			t.Fatal(err)
		}
		var m map[string]any
		dec := json.NewDecoder(bytes.NewReader(b))
		dec.UseNumber() // print cycles and counts as the file has them
		if err := dec.Decode(&m); err != nil {
			t.Fatal(err)
		}
		return m
	}
	var out string
	var walk func(path string, g, w map[string]any)
	walk = func(path string, g, w map[string]any) {
		var keys []string
		for k := range g {
			keys = append(keys, k)
		}
		for k := range w {
			if _, ok := g[k]; !ok {
				keys = append(keys, k)
			}
		}
		slices.Sort(keys)
		for _, k := range keys {
			gm, gok := g[k].(map[string]any)
			wm, wok := w[k].(map[string]any)
			switch {
			case gok && wok:
				walk(path+k+".", gm, wm)
			case !reflect.DeepEqual(g[k], w[k]):
				out += fmt.Sprintf("\n  %s%s: pinned %v, now %v", path, k, w[k], g[k])
			}
		}
	}
	walk("", asMap(got), asMap(want))
	return out
}
