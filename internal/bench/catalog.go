package bench

import (
	"encoding/json"

	"repro/internal/coherence"
	"repro/internal/rt"
)

// CatalogEntry is the machine-readable description of one registered
// benchmark: everything a client needs to construct a valid run request.
// `oldenbench -list`, `oldend`'s GET /benchmarks and `oldenload`'s default
// mix all render this one enumeration, so the three binaries can never
// drift on names, schemes, modes or default parameters.
type CatalogEntry struct {
	Name        string   `json:"name"`
	Description string   `json:"description"`
	PaperSize   string   `json:"paper_size"`
	Choice      string   `json:"choice"`
	Whole       bool     `json:"whole,omitempty"`
	Schemes     []string `json:"schemes"`
	Modes       []string `json:"modes"`

	// DefaultProcs/DefaultScale are the parameters a request gets when it
	// leaves them unset; MaxProcs bounds what the simulator accepts.
	DefaultProcs int `json:"default_procs"`
	DefaultScale int `json:"default_scale"`
	MaxProcs     int `json:"max_procs"`
}

// CatalogDefaultProcs is the machine size a run request gets when it does
// not name one — the size the pinned BENCH_<name>.json records use.
const CatalogDefaultProcs = 4

// CatalogMaxProcs bounds request machine sizes, matching the CLI flags.
const CatalogMaxProcs = 64

// Catalog enumerates every registered benchmark in Table 1 order with the
// scheme and mode vocabularies taken directly from the simulator's own
// enumerations.
func Catalog() []CatalogEntry {
	var schemes []string
	for _, k := range coherence.Kinds() {
		schemes = append(schemes, k.String())
	}
	var modes []string
	for _, m := range rt.Modes() {
		modes = append(modes, m.String())
	}
	var out []CatalogEntry
	for _, name := range Names() {
		info, _ := Get(name)
		out = append(out, CatalogEntry{
			Name:         info.Name,
			Description:  info.Description,
			PaperSize:    info.PaperSize,
			Choice:       info.Choice,
			Whole:        info.Whole(),
			Schemes:      schemes,
			Modes:        modes,
			DefaultProcs: CatalogDefaultProcs,
			DefaultScale: DefaultScale,
			MaxProcs:     CatalogMaxProcs,
		})
	}
	return out
}

// CatalogJSON renders the catalog in its canonical byte form: two-space
// indentation, trailing newline. Byte-identical across processes of the
// same binary.
func CatalogJSON() ([]byte, error) {
	b, err := json.MarshalIndent(Catalog(), "", "  ")
	if err != nil {
		return nil, err
	}
	return append(b, '\n'), nil
}
