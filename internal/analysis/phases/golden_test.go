package phases

import (
	"flag"
	"os"
	"path/filepath"
	"testing"
)

// The repo-wide convention: every golden-pinning test package takes
// -update to regenerate its goldens, surfaced as `make update-goldens`.
var update = flag.Bool("update", false,
	"rewrite testdata/*.golden from the current plans")

// minicSource reads examples/minic/<name>.c.
func minicSource(t *testing.T, name string) string {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("..", "..", "..", "examples", "minic", name+".c"))
	if err != nil {
		t.Fatal(err)
	}
	return string(data)
}

// TestPhasesGoldens pins the rendered phase plan of the paper figures and
// the hostile fixture: the slicing, per-phase footprints and invariance
// verdicts, so any drift must be deliberate:
//
//	go test ./internal/analysis/phases -run TestPhasesGoldens -update
func TestPhasesGoldens(t *testing.T) {
	for _, name := range []string{"figure3", "figure4", "figure5", "hostile"} {
		t.Run(name, func(t *testing.T) {
			got := mustPlan(t, minicSource(t, name), Options{}).String()
			golden := filepath.Join("testdata", "phases_"+name+".golden")
			if *update {
				if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(golden)
			if err != nil {
				t.Fatalf("%v (regenerate with -update)", err)
			}
			if got != string(want) {
				t.Errorf("plan changed for %s:\ngot:\n%s\nwant:\n%s", golden, got, want)
			}
		})
	}
}
