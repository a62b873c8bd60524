package bench_test

import (
	"encoding/json"
	"testing"

	"repro/internal/bench"
	"repro/internal/coherence"
	"repro/internal/rt"

	_ "repro/internal/bench/all"
)

// TestCatalogMatchesRegistry pins the catalog to the live registry and the
// simulator's own enumerations: every registered benchmark appears in
// order, and every advertised scheme and mode parses back to the value
// that produced it.
func TestCatalogMatchesRegistry(t *testing.T) {
	cat := bench.Catalog()
	names := bench.Names()
	if len(cat) != len(names) {
		t.Fatalf("catalog has %d entries, registry has %d", len(cat), len(names))
	}
	for i, e := range cat {
		if e.Name != names[i] {
			t.Errorf("catalog[%d] = %q, want %q", i, e.Name, names[i])
		}
		info, ok := bench.Get(e.Name)
		if !ok {
			t.Fatalf("catalog names unregistered benchmark %q", e.Name)
		}
		if e.Description != info.Description || e.PaperSize != info.PaperSize || e.Choice != info.Choice {
			t.Errorf("%s: catalog fields diverge from registry Info", e.Name)
		}
		if e.DefaultScale != bench.DefaultScale || e.DefaultProcs != bench.CatalogDefaultProcs {
			t.Errorf("%s: defaults %d/%d, want %d/%d",
				e.Name, e.DefaultProcs, e.DefaultScale, bench.CatalogDefaultProcs, bench.DefaultScale)
		}
		if len(e.Schemes) != len(coherence.Kinds()) {
			t.Fatalf("%s: %d schemes, want %d", e.Name, len(e.Schemes), len(coherence.Kinds()))
		}
		for _, s := range e.Schemes {
			if _, err := coherence.Parse(s); err != nil {
				t.Errorf("%s: advertised scheme does not parse: %v", e.Name, err)
			}
		}
		if len(e.Modes) != len(rt.Modes()) {
			t.Fatalf("%s: %d modes, want %d", e.Name, len(e.Modes), len(rt.Modes()))
		}
		for _, m := range e.Modes {
			if _, err := rt.ParseMode(m); err != nil {
				t.Errorf("%s: advertised mode does not parse: %v", e.Name, err)
			}
		}
	}
}

// TestParseRoundTrips checks the String/Parse pairs are exact inverses and
// reject junk.
func TestParseRoundTrips(t *testing.T) {
	for _, k := range coherence.Kinds() {
		got, err := coherence.Parse(k.String())
		if err != nil || got != k {
			t.Errorf("coherence.Parse(%q) = %v, %v", k.String(), got, err)
		}
	}
	if _, err := coherence.Parse("LOCAL"); err == nil {
		t.Error("coherence.Parse accepted LOCAL")
	}
	for _, m := range rt.Modes() {
		got, err := rt.ParseMode(m.String())
		if err != nil || got != m {
			t.Errorf("rt.ParseMode(%q) = %v, %v", m.String(), got, err)
		}
	}
	if _, err := rt.ParseMode("migrate"); err == nil {
		t.Error("rt.ParseMode accepted migrate")
	}
}

// TestCatalogJSONDeterministic pins the canonical rendering: repeated
// marshals are byte-identical and decode losslessly.
func TestCatalogJSONDeterministic(t *testing.T) {
	a, err := bench.CatalogJSON()
	if err != nil {
		t.Fatal(err)
	}
	b, err := bench.CatalogJSON()
	if err != nil {
		t.Fatal(err)
	}
	if string(a) != string(b) {
		t.Fatal("CatalogJSON not byte-stable across calls")
	}
	var back []bench.CatalogEntry
	if err := json.Unmarshal(a, &back); err != nil {
		t.Fatalf("catalog JSON does not decode: %v", err)
	}
	if len(back) != len(bench.Catalog()) {
		t.Fatalf("round trip lost entries: %d != %d", len(back), len(bench.Catalog()))
	}
}
