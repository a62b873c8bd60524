package bench_test

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/bench"
	"repro/internal/trace"

	_ "repro/internal/bench/all"
)

var update = flag.Bool("update", false,
	"rewrite testdata/trace_digests.golden from the current simulation")

// goldenScale pins the problem size of the golden runs explicitly, so a
// future change to bench.DefaultScale cannot silently re-key the file.
const goldenScale = 16

const goldenPath = "testdata/trace_digests.golden"

// TestTraceDigestGoldens pins the full trace digest — event count, hash
// and per-kind counts — for three benchmarks under all three coherence
// schemes at P=4. The digests change whenever the cost model, the
// protocol, or the event vocabulary changes; that is intentional. Review
// the diff, then regenerate with:
//
//	go test ./internal/bench -run TestTraceDigestGoldens -update
func TestTraceDigestGoldens(t *testing.T) {
	var lines []string
	for _, name := range []string{"treeadd", "bisort", "em3d"} {
		for _, s := range schemes {
			info, ok := bench.Get(name)
			if !ok {
				t.Fatalf("benchmark %q not registered", name)
			}
			rec := trace.New(0)
			res := info.Run(bench.Config{Procs: 4, Scale: goldenScale, Scheme: s.kind, Trace: rec})
			if !res.Verified() {
				t.Fatalf("%s under %s: check %#x != %#x", name, s.name, res.Check, res.WantCheck)
			}
			lines = append(lines, fmt.Sprintf("%s %s P=4 scale=1/%d %s",
				name, s.name, goldenScale, rec.Digest()))
		}
	}
	got := strings.Join(lines, "\n") + "\n"

	if *update {
		if err := os.MkdirAll(filepath.Dir(goldenPath), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenPath, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s", goldenPath)
		return
	}
	wantBytes, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatalf("missing golden file (regenerate with -update): %v", err)
	}
	want := string(wantBytes)
	if got == want {
		return
	}
	wantLines := strings.Split(strings.TrimRight(want, "\n"), "\n")
	for i, g := range lines {
		w := ""
		if i < len(wantLines) {
			w = wantLines[i]
		}
		if g != w {
			t.Errorf("digest mismatch:\n  got:  %s\n  want: %s", g, w)
		}
	}
	if len(wantLines) != len(lines) {
		t.Errorf("golden file has %d lines, run produced %d", len(wantLines), len(lines))
	}
}
