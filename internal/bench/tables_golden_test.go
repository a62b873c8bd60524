package bench_test

import (
	"os"
	"regexp"
	"slices"
	"strconv"
	"strings"
	"testing"

	"repro/internal/bench"
	"repro/internal/bench/record"
	"repro/internal/coherence"
)

// tablesParentPath holds what the live text tables printed in the last
// commit that had them: bench.Table2([]int{1,4}, 64, local),
// bench.Table3(4, 64) and bench.Curve("treeadd", []int{1,4}, 64, local).
// It is that code's verdict and is never regenerated; a re-pin that moves a
// printed cell edits that cell by hand, in the re-pin commit.
const tablesParentPath = "testdata/tables_parent.golden"

var numberRE = regexp.MustCompile(`^-?\d+(\.\d+)?$`)

// parentRows parses the golden into section -> row key -> the numbers the
// row printed, in order. A row is keyed by its benchmark name (the tables)
// or its P column (the curve).
func parentRows(t *testing.T) map[string]map[string][]string {
	t.Helper()
	b, err := os.ReadFile(tablesParentPath)
	if err != nil {
		t.Fatal(err)
	}
	rows := map[string]map[string][]string{"table2": {}, "table3": {}, "curve": {}}
	section := ""
	for _, line := range strings.Split(string(b), "\n") {
		switch {
		case strings.HasPrefix(line, "Table 2:"):
			section = "table2"
			continue
		case strings.HasPrefix(line, "Table 3:"):
			section = "table3"
			continue
		case strings.Contains(line, "speedup curve"):
			section = "curve"
			continue
		}
		f := strings.Fields(strings.ReplaceAll(line, "/", " "))
		if len(f) == 0 {
			continue
		}
		_, isBench := bench.Get(f[0])
		_, errP := strconv.Atoi(f[0])
		if !isBench && errP != nil {
			continue // a header line
		}
		var nums []string
		for _, field := range f[1:] {
			if numberRE.MatchString(field) {
				nums = append(nums, field)
			}
		}
		rows[section][f[0]] = nums
	}
	return rows
}

// markdownRows parses a rendered table into row key -> the cells after it.
func markdownRows(md string) map[string][]string {
	rows := map[string][]string{}
	for _, line := range strings.Split(md, "\n") {
		if !strings.HasPrefix(line, "| ") {
			continue
		}
		cells := strings.Split(strings.Trim(line, "| "), "|")
		for i := range cells {
			cells[i] = strings.TrimSpace(cells[i])
		}
		rows[cells[0]] = cells[1:]
	}
	return rows
}

// TestTablesPrintParentNumbers renders Table 2, Table 3 and the treeadd
// curve through the record pipeline — suite, records, markdown —
// and requires, row by row, that every number the deleted text tables
// printed appears in the new row, in the same order with the same digits
// (the new rows interleave the paper's columns).
func TestTablesPrintParentNumbers(t *testing.T) {
	if testing.Short() || raceDetectorEnabled {
		// Printed digits do not depend on the build mode, and the race
		// build already drives every kernel through the trimmed battery.
		t.Skip("short mode or race build")
	}
	// collect assembles what bench.CollectRecords would return from the
	// shared runs: most of the suites' configurations are battery lines.
	collect := func(names []string, suite []bench.Config) []record.File {
		var files []record.File
		for _, name := range names {
			info, _ := bench.Get(name)
			f := record.File{Benchmark: name, Choice: info.Choice, Whole: info.Whole()}
			for _, cfg := range suite {
				f.Records = append(f.Records, shared(t, name, cfg).rec)
			}
			files = append(files, f)
		}
		return files
	}
	procs := []int{1, 4}
	mc := slices.DeleteFunc(slices.Clone(batteryKernels), func(name string) bool {
		info, _ := bench.Get(name)
		return info.Choice != "M+C"
	})
	rendered := map[string]string{
		"table2": record.Table2Markdown(collect(batteryKernels, bench.Table2Suite(procs, 64, coherence.LocalKnowledge)), procs, "local"),
		"table3": record.Table3Markdown(collect(mc, bench.Table3Suite(4, 64)), 4),
		"curve":  record.CurveMarkdown(collect([]string{"treeadd"}, bench.CurveSuite(procs, 64, coherence.LocalKnowledge))[0], procs, "local"),
	}
	parent := parentRows(t)
	for section, wantRows := range map[string]int{"table2": 10, "table3": 6, "curve": 2} {
		if len(parent[section]) != wantRows {
			t.Fatalf("%s: golden has %d rows, want %d", section, len(parent[section]), wantRows)
		}
		got := markdownRows(rendered[section])
		for key, nums := range parent[section] {
			cells, ok := got[key]
			if !ok {
				t.Errorf("%s: no row %q in\n%s", section, key, rendered[section])
				continue
			}
			rest := cells
			for _, n := range nums {
				i := slices.Index(rest, n)
				if i < 0 {
					t.Errorf("%s row %s: parent printed %v, new row %v lacks %s in order", section, key, nums, cells, n)
					break
				}
				rest = rest[i+1:]
			}
		}
	}
	if !strings.Contains(rendered["table3"], "| miss% local |") {
		t.Errorf("Table 3 header must say miss%%:\n%s", rendered["table3"])
	}
}
