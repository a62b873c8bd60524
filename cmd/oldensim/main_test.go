package main

import (
	"testing"

	"repro/internal/bench"
	"repro/internal/rt"
)

// TestConfigForSpeaksTheCatalog pins the front door to the catalog's
// vocabulary: every mode and scheme name GET /benchmarks and oldenbench
// -list advertise resolves, and round-trips through the resolved value.
func TestConfigForSpeaksTheCatalog(t *testing.T) {
	cat := bench.Catalog()
	if len(cat) == 0 {
		t.Fatal("empty catalog")
	}
	for _, mode := range cat[0].Modes {
		for _, scheme := range cat[0].Schemes {
			cfg, err := configFor(4, 16, mode, scheme)
			if err != nil {
				t.Errorf("configFor(%q, %q): %v", mode, scheme, err)
				continue
			}
			if cfg.Mode.String() != mode || cfg.Scheme.String() != scheme || cfg.Procs != 4 || cfg.Scale != 16 {
				t.Errorf("configFor(%q, %q) = %+v", mode, scheme, cfg)
			}
		}
	}
}

// TestConfigForRejectsOldModeNames: the pre-catalog spellings are errors,
// reported in rt.ParseMode's own words, and a bad scheme is an error too.
func TestConfigForRejectsOldModeNames(t *testing.T) {
	for _, mode := range []string{"migrate", "cache", ""} {
		_, want := rt.ParseMode(mode)
		_, err := configFor(4, 16, mode, "local")
		if err == nil || want == nil || err.Error() != want.Error() {
			t.Errorf("configFor(mode=%q) error = %v, want %v", mode, err, want)
		}
	}
	if _, err := configFor(4, 16, "heuristic", "msi"); err == nil {
		t.Error("configFor accepted scheme \"msi\"")
	}
}
