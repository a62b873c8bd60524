package record

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/machine"
)

func sampleFile() File {
	mk := func(base bool, procs int, scheme, mode string, cycles int64, miss float64) RunRecord {
		return RunRecord{
			Benchmark: "treeadd", Baseline: base, Procs: procs,
			Scheme: scheme, Mode: mode, Scale: 16,
			Cycles: cycles, Verified: true, Pages: 12,
			Stats:   machine.Stats{RemoteReads: 100, Misses: int64(miss)},
			MissPct: miss,
			Metrics: map[string]int64{"olden_migrations_total": 3},
		}
	}
	return File{
		Benchmark: "treeadd", Choice: "M",
		Records: []RunRecord{
			mk(true, 1, "local", "heuristic", 1000, 0),
			mk(false, 4, "local", "heuristic", 400, 2.5),
			mk(false, 4, "global", "heuristic", 420, 1.5),
			mk(false, 4, "bilateral", "heuristic", 410, 2.0),
			mk(false, 4, "local", "migrate-only", 900, 0),
		},
	}
}

func TestMarshalIsByteStable(t *testing.T) {
	f := sampleFile()
	a, err := f.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	b, err := f.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a, b) {
		t.Fatal("two marshals of the same file differ")
	}
	if a[len(a)-1] != '\n' {
		t.Fatal("canonical form must end in a newline")
	}
}

func TestSaveLoadRoundTrip(t *testing.T) {
	dir := t.TempDir()
	f := sampleFile()
	if err := f.Save(dir); err != nil {
		t.Fatal(err)
	}
	got, err := Load(filepath.Join(dir, Filename("treeadd")))
	if err != nil {
		t.Fatal(err)
	}
	if got.Schema != SchemaVersion {
		t.Fatalf("schema = %d, want %d", got.Schema, SchemaVersion)
	}
	// Re-saving the loaded file must reproduce the original bytes.
	want, _ := f.Marshal()
	back, err := got.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(want, back) {
		t.Fatal("load/marshal round trip changed the bytes")
	}
	r, ok := got.Lookup("baseline")
	if !ok || r.Cycles != 1000 {
		t.Fatalf("baseline lookup = %+v, %v", r, ok)
	}
	if _, ok := got.Lookup(HeuristicKey(4, "global")); !ok {
		t.Fatal("global heuristic record missing after round trip")
	}

	// LoadDir finds the file and orders benchmarks as in Table 1.
	power := f
	power.Benchmark = "power"
	if err := power.Save(dir); err != nil {
		t.Fatal(err)
	}
	files, err := LoadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(files) != 2 || files[0].Benchmark != "treeadd" || files[1].Benchmark != "power" {
		t.Fatalf("LoadDir order = %v, want [treeadd power]", files)
	}
	if _, err := LoadDir(t.TempDir()); err == nil {
		t.Fatal("LoadDir on an empty directory must error")
	}
}

func TestLoadRejectsWrongSchema(t *testing.T) {
	dir := t.TempDir()
	f := sampleFile()
	if err := f.Save(dir); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, Filename("treeadd"))
	loaded, _ := Load(path)
	loaded.Schema = SchemaVersion // Save overwrites; corrupt it on disk instead
	b, _ := loaded.Marshal()
	bad := bytes.Replace(b, []byte(`"schema": 1`), []byte(`"schema": 99`), 1)
	if bytes.Equal(bad, b) {
		t.Fatal("test bug: schema field not found")
	}
	writeFile(t, path, bad)
	if _, err := Load(path); err == nil || !strings.Contains(err.Error(), "schema") {
		t.Fatalf("Load with wrong schema: err = %v, want schema error", err)
	}
}

func TestPaperTables(t *testing.T) {
	if s, ok := PaperSpeedup("treeadd", 4); !ok || s != 2.93 {
		t.Fatalf("PaperSpeedup(treeadd, 4) = %v, %v; want 2.93", s, ok)
	}
	if s, ok := PaperSpeedup("health", 32); !ok || s != 16.42 {
		t.Fatalf("PaperSpeedup(health, 32) = %v, %v; want 16.42", s, ok)
	}
	if _, ok := PaperSpeedup("treeadd", 3); ok {
		t.Fatal("P=3 is not a paper machine size")
	}
	if _, ok := PaperSpeedup("nosuch", 4); ok {
		t.Fatal("unknown benchmark should not resolve")
	}
	if s, ok := PaperMigrateOnly("em3d"); !ok || s != 0.05 {
		t.Fatalf("PaperMigrateOnly(em3d) = %v, %v; want 0.05", s, ok)
	}
	if _, ok := PaperMigrateOnly("treeadd"); ok {
		t.Fatal("paper prints a dash for treeadd M-only")
	}
	// Every Table 1 benchmark has a published speedup row.
	for name := range table1Order {
		if _, ok := PaperSpeedup(name, 4); !ok {
			t.Errorf("no paper row for %s", name)
		}
	}
}

func TestRenderReport(t *testing.T) {
	cur := []File{sampleFile()}
	out := Report(cur)
	for _, want := range []string{"Table 2", "treeadd", "2.50", "2.93"} {
		if !strings.Contains(out, want) {
			t.Errorf("report missing %q:\n%s", want, out)
		}
	}
	// treeadd is choice M, so Table 3 has no rows; an M+C file gets one.
	mc := sampleFile()
	mc.Benchmark, mc.Choice = "em3d", "M+C"
	for i := range mc.Records {
		mc.Records[i].Benchmark = "em3d"
	}
	out = Table3Markdown([]File{mc}, 4)
	if !strings.Contains(out, "em3d") || !strings.Contains(out, "2.50") {
		t.Errorf("Table 3 should list em3d's local miss rate:\n%s", out)
	}
}

// TestTable2SchemeAndSweep covers what widening Table 2 added: the
// migrate-only column follows the table's scheme (a `-table 2 -scheme
// global` run records it under global), every machine size of the sweep
// gets its measured and paper cells, and the paper's M-only column appears
// at P=32, the only size it was published at.
func TestTable2SchemeAndSweep(t *testing.T) {
	mk := func(base bool, procs int, scheme, mode string, cycles int64) RunRecord {
		return RunRecord{Benchmark: "health", Baseline: base, Procs: procs, Scheme: scheme, Mode: mode, Scale: 16, Cycles: cycles}
	}
	for _, tc := range []struct {
		scheme  string
		procs   []int
		records []RunRecord
		want    string // the row after the benchmark and choice cells
	}{
		{"local", []int{4}, []RunRecord{mk(true, 1, "local", "heuristic", 1000),
			mk(false, 4, "local", "heuristic", 400), mk(false, 4, "local", "migrate-only", 800)},
			"| 1000 | 2.50 | 2.93 | 1.25 | — |"},
		{"global", []int{4}, []RunRecord{mk(true, 1, "global", "heuristic", 1000),
			mk(false, 4, "global", "heuristic", 400), mk(false, 4, "global", "migrate-only", 800)},
			"| 1000 | 2.50 | 2.93 | 1.25 | — |"},
		{"global", []int{4}, []RunRecord{mk(true, 1, "global", "heuristic", 1000),
			mk(false, 4, "global", "heuristic", 400), mk(false, 4, "local", "migrate-only", 800)},
			"| 1000 | 2.50 | 2.93 | — | — |"},
		{"local", []int{2, 32}, []RunRecord{mk(true, 1, "local", "heuristic", 1000),
			mk(false, 2, "local", "heuristic", 500), mk(false, 32, "local", "heuristic", 100), mk(false, 32, "local", "migrate-only", 250)},
			"| 1000 | 2.00 | 1.47 | 10.00 | 16.42 | 4.00 | 16.52 |"},
	} {
		f := File{Benchmark: "health", Choice: "M+C", Whole: true, Records: tc.records}
		out := Table2Markdown([]File{f}, tc.procs, tc.scheme)
		if want := "| health | M+C W " + tc.want + "\n"; !strings.Contains(out, want) {
			t.Errorf("scheme %s procs %v: want row %q in\n%s", tc.scheme, tc.procs, want, out)
		}
	}
	if got, want := MigrateOnlyKey(8, "global"), mk(false, 8, "global", "migrate-only", 0).Key(); got != want {
		t.Errorf("MigrateOnlyKey = %q, the record's Key %q", got, want)
	}
}

var update = flag.Bool("update", false, "rewrite testdata/report.golden from the committed BENCH_*.json")

// TestReportGolden pins the bytes of the report CI uploads: record.Report
// over the ten committed BENCH_<name>.json at the repository root. Pure
// rendering, no simulation; `make update-goldens` refreshes it after an
// intentional re-pin or renderer change.
func TestReportGolden(t *testing.T) {
	files, err := LoadDir("../../..")
	if err != nil {
		t.Fatal(err)
	}
	got := Report(files)
	const path = "testdata/report.golden"
	if *update {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		writeFile(t, path, []byte(got))
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden file (regenerate with -update): %v", err)
	}
	if got != string(want) {
		t.Errorf("report moved (go test ./internal/bench/record -run TestReportGolden -update):\ngot:\n%s\nwant:\n%s", got, want)
	}
}

func writeFile(t *testing.T, path string, b []byte) {
	t.Helper()
	if err := os.WriteFile(path, b, 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestTable3PaperCells renders a P=32 record set for the six
// migrate-and-cache benchmarks and finds every published Table 3 cell
// beside its measured one.
func TestTable3PaperCells(t *testing.T) {
	published := map[string][]string{ // the paper's row, in column order
		"bisort":    {"8208", "0.045", "32617", "0.054", "28.6", "24.9", "29.2", "1604"},
		"voronoi":   {"9825", "1.57", "42359", "1.26", "5.89", "5.89", "5.89", "2982"},
		"em3d":      {"0", "0", "839", "19.4", "6.18", "6.18", "6.18", "1995"},
		"barneshut": {"2707", "18.3", "73601", "55.6", "0.815", "0.563", "0.792", "21749"},
		"perimeter": {"0", "0", "1018", "2.02", "8.8", "8.63", "8.8", "502"},
		"health":    {"8861", "0.063", "33405", "0.019", "87", "10.3", "87", "163"},
	}
	var files []File
	for name := range published {
		f := File{Benchmark: name, Choice: "M+C"}
		for _, scheme := range []string{"local", "global", "bilateral"} {
			f.Records = append(f.Records, RunRecord{Benchmark: name, Procs: 32, Scheme: scheme, Mode: "heuristic", Scale: 8, MissPct: 1})
		}
		files = append(files, f)
	}
	out := Table3Markdown(files, 32)
	for name, cells := range published {
		var row []string
		for _, line := range strings.Split(out, "\n") {
			if strings.HasPrefix(line, "| "+name+" |") {
				row = strings.Split(strings.Trim(line, "| "), " | ")
			}
		}
		if len(row) != 17 {
			t.Fatalf("%s: row %v, want 17 cells in\n%s", name, row, out)
		}
		for i, want := range cells {
			col := []int{2, 4, 6, 8, 10, 12, 14, 16}[i]
			if row[col] != want {
				t.Errorf("%s column %d: %q, want the paper's %q", name, col, row[col], want)
			}
		}
	}
	if strings.Contains(Table3Markdown(files, 4), "8208") {
		t.Error("paper cells belong to P=32 only")
	}
}
