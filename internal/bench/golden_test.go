package bench_test

import (
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var update = flag.Bool("update", false,
	"rewrite the golden files under testdata/ from the current simulation")

// golden is a testdata file holding one line per configuration, in the
// order the test runs them. A test checks each line it produces against
// the committed one, or — under -update — rewrites the file from its run.
type golden struct {
	path string
	want []string // the committed lines; unread under -update
}

func openGolden(t *testing.T, path string) *golden {
	t.Helper()
	g := &golden{path: path}
	if *update {
		return g
	}
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden file (regenerate with -update): %v", err)
	}
	g.want = strings.Split(strings.TrimRight(string(b), "\n"), "\n")
	return g
}

// check compares the run's i-th line with the file's.
func (g *golden) check(t *testing.T, i int, got string) {
	t.Helper()
	if *update {
		return
	}
	want := ""
	if i < len(g.want) {
		want = g.want[i]
	}
	if got != want {
		t.Errorf("%s line %d moved in %v:\n  got:  %s\n  want: %s", g.path, i+1, movedFields(got, want), got, want)
	}
}

// movedFields lists the run's space-separated fields that the committed
// line does not have in the same place: the lines are long, and which
// outcome moved is the finding.
func movedFields(got, want string) []string {
	w := strings.Fields(want)
	var moved []string
	for i, f := range strings.Fields(got) {
		if i >= len(w) || f != w[i] {
			moved = append(moved, f)
		}
	}
	return moved
}

// finish closes the comparison: the file must hold exactly the lines the
// test has, or under -update is rewritten from them.
func (g *golden) finish(t *testing.T, lines []string) {
	t.Helper()
	if !*update {
		if len(g.want) != len(lines) {
			t.Errorf("%s has %d lines, the test has %d", g.path, len(g.want), len(lines))
		}
		return
	}
	if err := os.MkdirAll(filepath.Dir(g.path), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(g.path, []byte(strings.Join(lines, "\n")+"\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	t.Logf("rewrote %s", g.path)
}
