package bench

import (
	"strconv"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/rt"
)

func TestBlockedProc(t *testing.T) {
	// Blocked distribution covers all processors with contiguous runs.
	n, p := 100, 8
	prev := 0
	counts := make([]int, p)
	for i := 0; i < n; i++ {
		q := BlockedProc(i, n, p)
		if q < prev {
			t.Fatalf("blocked distribution not monotone at %d", i)
		}
		if q >= p {
			t.Fatalf("processor %d out of range", q)
		}
		prev = q
		counts[q]++
	}
	for q, c := range counts {
		if c == 0 {
			t.Fatalf("processor %d received no items", q)
		}
	}
}

func TestBlockedProcQuick(t *testing.T) {
	f := func(i uint16, n uint16, p uint8) bool {
		nn := int(n%1000) + 1
		pp := int(p%32) + 1
		ii := int(i) % nn
		q := BlockedProc(ii, nn, pp)
		return q >= 0 && q < pp
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestCyclicProc(t *testing.T) {
	for i := 0; i < 20; i++ {
		if got := CyclicProc(i, 4); got != i%4 {
			t.Fatalf("cyclic(%d) = %d", i, got)
		}
	}
}

func TestConfigScaled(t *testing.T) {
	c := Config{Scale: 4}
	if got := c.Scaled(1024, 10); got != 256 {
		t.Fatalf("scaled = %d", got)
	}
	if got := c.Scaled(16, 10); got != 10 {
		t.Fatalf("floor not applied: %d", got)
	}
	var def Config
	if got := def.Scaled(DefaultScale*100, 1); got != 100 {
		t.Fatalf("default scale: %d", got)
	}
}

func TestRegistry(t *testing.T) {
	Register(Info{Name: "bench-test-dummy", Run: func(Config) Result { return Result{} }})
	if _, ok := Get("bench-test-dummy"); !ok {
		t.Fatal("registered benchmark not found")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("duplicate registration must panic")
		}
	}()
	Register(Info{Name: "bench-test-dummy"})
}

func TestRawHelpers(t *testing.T) {
	r := rt.New(rt.Config{Procs: 2, HeapBytesPerProc: 1 << 20})
	g := RawAlloc(r, 1, 32)
	RawStore(r, g, 8, 77)
	if v := RawLoad(r, g, 8); v != 77 {
		t.Fatalf("raw load = %d", v)
	}
	RawStorePtr(r, g, 16, g)
	if v := RawLoadPtr(r, g, 16); v != g {
		t.Fatalf("raw ptr = %v", v)
	}
}

func TestCollectRecordsUnknownBenchmark(t *testing.T) {
	if _, err := CollectRecords("no-such-benchmark", PinnedSuite(1, 64)); err == nil {
		t.Fatal("expected error")
	}
}

// TestFigure2ClosedFormLabels checks that each closed form Figure2 prints
// evaluates to the value printed beside it and to the count the walk
// measured (internal/rt's TestFigure2Counts pins the counts themselves).
func TestFigure2ClosedFormLabels(t *testing.T) {
	const n, p = 256, 4
	forms := map[string]int{"P-1": p - 1, "N-1": n - 1, "2N(P-1)/P": 2 * n * (p - 1) / p}
	rows := 0
	for _, line := range strings.Split(Figure2(n, p), "\n") {
		f := strings.Fields(line) // layout mechanism migrations remote cycles label = value
		if len(f) != 8 || f[6] != "=" {
			continue
		}
		rows++
		want, ok := forms[f[5]]
		if !ok {
			t.Fatalf("unknown closed form %q in %q", f[5], line)
		}
		measured := f[2] // migrations
		if f[1] == "cache" {
			measured = f[3] // remote refs
		}
		if f[7] != strconv.Itoa(want) || measured != f[7] {
			t.Errorf("%s %s: label %s evaluates to %d, printed %s, measured %s", f[0], f[1], f[5], want, f[7], measured)
		}
	}
	if rows != 4 {
		t.Fatalf("Figure2 printed %d closed-form rows, want 4", rows)
	}
}
