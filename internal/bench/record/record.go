// Package record defines the persistent benchmark record format: one
// versioned JSON file per benchmark (BENCH_<name>.json) holding the
// simulated-cycle makespan, statistics snapshot, and metrics dump of a
// small suite of pinned configurations. Because the simulator is
// deterministic in virtual time, two runs of the same binary produce
// byte-identical records, so the pins are gated as a byte diff: re-record
// them in place and fail on any byte that moved (make perfgate).
package record

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"repro/internal/machine"
)

// SchemaVersion is bumped whenever the record layout changes incompatibly;
// Load rejects files written under a different schema so a stale pin fails
// loudly instead of rendering nonsense.
const SchemaVersion = 1

// RunRecord captures one benchmark run: its full configuration and every
// observable the tables are built from. All fields are deterministic
// functions of (benchmark, configuration) — nothing wall-clock derived.
type RunRecord struct {
	Benchmark string `json:"benchmark"`
	Baseline  bool   `json:"baseline,omitempty"`
	Procs     int    `json:"procs"`
	Scheme    string `json:"scheme"`
	Mode      string `json:"mode"`
	Scale     int    `json:"scale"`

	// Cycles is the simulated makespan of the timed region.
	Cycles   int64 `json:"cycles"`
	Verified bool  `json:"verified"`
	Pages    int64 `json:"pages"`

	Stats   machine.Stats `json:"stats"`
	MissPct float64       `json:"miss_pct"`

	// Metrics is the flattened registry dump (internal/metrics
	// Snapshot.Flat): counter values, histogram counts/sums/buckets.
	Metrics map[string]int64 `json:"metrics,omitempty"`

	// TraceDigest is the run's event-stream digest in the golden format;
	// it pins the full event sequence, not just the aggregates.
	TraceDigest string `json:"trace_digest,omitempty"`
}

// Key names the configuration within a file. The baseline is singular;
// parallel runs are distinguished by machine size, scheme and mode.
func (r RunRecord) Key() string {
	if r.Baseline {
		return "baseline"
	}
	return ParallelKey(r.Procs, r.Scheme, r.Mode)
}

// File is the persistent per-benchmark record: BENCH_<name>.json.
type File struct {
	Schema    int         `json:"schema"`
	Benchmark string      `json:"benchmark"`
	Choice    string      `json:"choice"`
	Whole     bool        `json:"whole,omitempty"`
	Records   []RunRecord `json:"records"`
}

// Lookup finds the record with the given configuration key.
func (f File) Lookup(key string) (RunRecord, bool) {
	for _, r := range f.Records {
		if r.Key() == key {
			return r, true
		}
	}
	return RunRecord{}, false
}

// ParallelKey is the key of the run at P under scheme in mode (the
// catalog's mode names: heuristic, migrate-only, cache-only).
func ParallelKey(procs int, scheme, mode string) string {
	return fmt.Sprintf("P=%d scheme=%s mode=%s", procs, scheme, mode)
}

// HeuristicKey is the key of the parallel heuristic run at P under scheme.
func HeuristicKey(procs int, scheme string) string {
	return ParallelKey(procs, scheme, "heuristic")
}

// MigrateOnlyKey is the key of the forced-migration run at P under scheme.
func MigrateOnlyKey(procs int, scheme string) string {
	return ParallelKey(procs, scheme, "migrate-only")
}

// Filename returns the canonical file name for a benchmark's records.
func Filename(bench string) string { return "BENCH_" + bench + ".json" }

// Marshal renders the file in its canonical byte form: sorted records,
// two-space indentation, trailing newline. Byte-identical across reruns of
// the same binary, so pinned baselines diff cleanly.
func (f File) Marshal() ([]byte, error) {
	f.Schema = SchemaVersion
	sort.Slice(f.Records, func(i, j int) bool {
		return f.Records[i].Key() < f.Records[j].Key()
	})
	b, err := json.MarshalIndent(f, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(b, '\n'), nil
}

// Save writes the file into dir under its canonical name.
func (f File) Save(dir string) error {
	b, err := f.Marshal()
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, Filename(f.Benchmark)), b, 0o644)
}

// Load reads one record file and checks its schema.
func Load(path string) (File, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return File{}, err
	}
	var f File
	if err := json.Unmarshal(b, &f); err != nil {
		return File{}, fmt.Errorf("record: %s: %w", path, err)
	}
	if f.Schema != SchemaVersion {
		return File{}, fmt.Errorf("record: %s: schema %d, want %d (re-pin with make bench)",
			path, f.Schema, SchemaVersion)
	}
	return f, nil
}

// LoadDir reads every BENCH_*.json in dir, returned in Table 1 order.
func LoadDir(dir string) ([]File, error) {
	paths, err := filepath.Glob(filepath.Join(dir, "BENCH_*.json"))
	if err != nil {
		return nil, err
	}
	var files []File
	for _, p := range paths {
		f, err := Load(p)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	sort.Slice(files, func(i, j int) bool {
		return BenchLess(files[i].Benchmark, files[j].Benchmark)
	})
	if len(files) == 0 {
		return nil, fmt.Errorf("record: no BENCH_*.json files in %s", dir)
	}
	return files, nil
}

// table1Order is the paper's benchmark order, used everywhere benchmarks
// are listed: BenchLess sorts the bench registry's names with it too.
var table1Order = map[string]int{
	"treeadd": 0, "power": 1, "tsp": 2, "mst": 3, "bisort": 4,
	"voronoi": 5, "em3d": 6, "barneshut": 7, "perimeter": 8, "health": 9,
}

// BenchLess orders benchmark names as Table 1 does where known, then
// alphabetically.
func BenchLess(a, b string) bool {
	oa, aok := table1Order[a]
	ob, bok := table1Order[b]
	switch {
	case aok && bok:
		return oa < ob
	case aok:
		return true
	case bok:
		return false
	default:
		return strings.Compare(a, b) < 0
	}
}
