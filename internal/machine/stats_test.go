package machine

import "testing"

// TestStatsSnapshotDerivedAccessors pins the derived quantities Table 3 is
// built from: RemoteRefs is the miss-percentage denominator, and MissPct
// must be exactly zero — not NaN or Inf — when a run had no remote
// references at all (every migrate-only run, and any sequential baseline).
func TestStatsSnapshotDerivedAccessors(t *testing.T) {
	var zero Stats
	if got := zero.RemoteRefs(); got != 0 {
		t.Fatalf("zero snapshot RemoteRefs = %d, want 0", got)
	}
	if got := zero.MissPct(); got != 0 {
		t.Fatalf("zero snapshot MissPct = %v, want exactly 0 (no NaN/Inf)", got)
	}

	s := Stats{RemoteReads: 30, RemoteWrites: 10, Misses: 10}
	if got := s.RemoteRefs(); got != 40 {
		t.Fatalf("RemoteRefs = %d, want 40", got)
	}
	if got := s.MissPct(); got != 25 {
		t.Fatalf("MissPct = %v, want 25", got)
	}

	// Misses without remote refs cannot happen in a real run, but the
	// accessor must still not divide by zero.
	odd := Stats{Misses: 5}
	if got := odd.MissPct(); got != 0 {
		t.Fatalf("MissPct with zero remote refs = %v, want 0", got)
	}

	// All-miss boundary: exactly 100.
	all := Stats{RemoteReads: 7, Misses: 7}
	if got := all.MissPct(); got != 100 {
		t.Fatalf("MissPct = %v, want 100", got)
	}
}
