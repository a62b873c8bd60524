package repro_test

import (
	"os"
	"testing"
)

// docsBudget is the byte ceiling on DESIGN.md + EXPERIMENTS.md. ROADMAP
// item 8 ratchets it down toward 70 KB: a change that grows the two files
// past it condenses something else first, and a change that shrinks them
// lowers it.
const docsBudget = 126794

func TestDocsBudget(t *testing.T) {
	var n int64
	for _, f := range []string{"DESIGN.md", "EXPERIMENTS.md"} {
		fi, err := os.Stat(f)
		if err != nil {
			t.Fatal(err)
		}
		n += fi.Size()
	}
	if n > docsBudget {
		t.Errorf("DESIGN.md + EXPERIMENTS.md are %d B, over the %d B budget", n, docsBudget)
	}
}
