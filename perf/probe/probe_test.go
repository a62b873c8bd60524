package probe

import (
	"testing"
	"time"
)

// TestAllProbesReport runs every probe at a tiny budget: each must report
// a positive figure under a name used once.
func TestAllProbesReport(t *testing.T) {
	seen := map[string]bool{}
	for _, r := range All(Options{Budget: time.Millisecond, Rounds: 1}) {
		if seen[r.Name] {
			t.Errorf("%s reported twice", r.Name)
		}
		seen[r.Name] = true
		if r.Unit == "" || r.N < 1 || !(r.Value > 0) {
			t.Errorf("%s: value %v unit %q over %d operations", r.Name, r.Value, r.Unit, r.N)
		}
		t.Logf("%-34s %12.3f %-5s n=%d", r.Name, r.Value, r.Unit, r.N)
	}
	if len(seen) < 30 {
		t.Errorf("only %d probes reported", len(seen))
	}
}
