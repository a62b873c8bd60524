package bench_test

import (
	"fmt"
	"os"
	"strconv"
	"strings"
	"testing"

	"repro/internal/bench/record"
)

// digestStatPairs ties each trace digest kind to the machine.Stats counter
// that counts the same mechanism: one event per counted occurrence.
var digestStatPairs = [...]struct{ kind, stat string }{
	{"migrate", "Migrations"}, {"return", "Returns"}, {"spawn", "Futures"}, {"touch", "Touches"},
	{"miss", "Misses"}, {"fetch", "LineFetches"}, {"stamp", "StampChecks"}, {"flush", "FullFlushes"},
}

// digestKindCounts reads the per-kind counts of a digest in the golden
// format (trace.Digest.String); a kind it does not list counted zero.
func digestKindCounts(digest string) (map[string]int64, error) {
	counts := map[string]int64{}
	for _, field := range strings.Fields(digest) {
		if strings.HasPrefix(field, "events=") || strings.HasPrefix(field, "dropped=") || strings.HasPrefix(field, "hash=") {
			continue
		}
		for _, kv := range strings.Split(field, ",") {
			k, v, ok := strings.Cut(kv, "=")
			n, err := strconv.ParseInt(v, 10, 64)
			if !ok || err != nil {
				return nil, fmt.Errorf("kind count %q in %q", kv, digest)
			}
			counts[k] = n
		}
	}
	return counts, nil
}

// statCounts reads machine.Stats as %+v renders it: {Name:N Name:N ...}.
func statCounts(stats string) (map[string]int64, error) {
	counts := map[string]int64{}
	for _, kv := range strings.Fields(strings.Trim(stats, "{}")) {
		k, v, ok := strings.Cut(kv, ":")
		n, err := strconv.ParseInt(v, 10, 64)
		if !ok || err != nil {
			return nil, fmt.Errorf("stat %q in %q", kv, stats)
		}
		counts[k] = n
	}
	return counts, nil
}

// pinMismatches lists every digest kind count of one pinned run that
// disagrees with the same run's machine counter.
func pinMismatches(digest, stats string) ([]string, error) {
	kinds, err := digestKindCounts(digest)
	if err != nil {
		return nil, err
	}
	st, err := statCounts(stats)
	if err != nil {
		return nil, err
	}
	var out []string
	for _, p := range digestStatPairs {
		s, ok := st[p.stat]
		if !ok {
			return nil, fmt.Errorf("no %s in %q", p.stat, stats)
		}
		if kinds[p.kind] != s {
			out = append(out, fmt.Sprintf("%s=%d against %s: %d", p.kind, kinds[p.kind], p.stat, s))
		}
	}
	return out, nil
}

// TestPinsAgreeWithStats checks that every pinned digest covers its whole
// run: in each committed BENCH_*.json record and each battery line, a
// digest kind's count equals the machine counter of the same mechanism.
// A digest hashed over a suffix of the run (a wrapped ring read after the
// fact) undercounts, and fails here.
func TestPinsAgreeWithStats(t *testing.T) {
	files, err := record.LoadDir("../..")
	if err != nil {
		t.Fatal(err)
	}
	check := func(where, digest, stats string) {
		t.Helper()
		bad, err := pinMismatches(digest, stats)
		if err != nil {
			t.Fatalf("%s: %v", where, err)
		}
		for _, m := range bad {
			t.Errorf("%s: %s", where, m)
		}
	}
	for _, f := range files {
		for _, r := range f.Records {
			check(record.Filename(f.Benchmark)+" "+r.Key(), r.TraceDigest, fmt.Sprintf("%+v", r.Stats))
		}
	}
	b, err := os.ReadFile(batteryPath)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimRight(string(b), "\n"), "\n")
	if len(lines) != len(batteryKernels)*len(schemes)*3 {
		t.Fatalf("%s has %d lines, want %d", batteryPath, len(lines), len(batteryKernels)*len(schemes)*3)
	}
	for i, line := range lines {
		_, digest, ok1 := strings.Cut(line, " events=")
		digest, stats, ok2 := strings.Cut(digest, " heap=")
		_, stats, ok3 := strings.Cut(stats, " stats=")
		if !ok1 || !ok2 || !ok3 {
			t.Fatalf("%s:%d: no events=, heap= or stats= field", batteryPath, i+1)
		}
		check(fmt.Sprintf("%s:%d", batteryPath, i+1), "events="+digest, stats)
	}
}
