package repro_test

import (
	"bytes"
	"io/fs"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// locBudget is the ceiling on non-test Go lines under internal/ and cmd/,
// the number `make loc` prints and ROADMAP item 7 tracks: a change that
// grows the code past it deletes something else first, and a change that
// shrinks it lowers it.
const locBudget = 19162

func TestLocBudget(t *testing.T) {
	n := 0
	for _, root := range []string{"internal", "cmd"} {
		err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
			if err != nil || d.IsDir() || !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
				return err
			}
			data, err := os.ReadFile(path)
			n += bytes.Count(data, []byte("\n"))
			return err
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	if n > locBudget {
		t.Errorf("internal/ and cmd/ hold %d non-test Go lines, over the %d-line budget", n, locBudget)
	}
}
