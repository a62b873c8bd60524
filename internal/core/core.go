// Package core implements the paper's primary contribution: the
// compile-time analysis that selects, for each pointer dereference, between
// computation migration and software caching (paper §4).
//
// The three-step process:
//
//  1. The programmer supplies path-affinity hints on structure fields
//     (§4.1); unannotated fields default to 70%.
//  2. A dataflow analysis over each control loop (iterative loops and
//     recursions) builds an update matrix (§4.2): entry (s,t) holds the
//     path affinity of the update when s's value at the end of an
//     iteration is t's value at the start dereferenced through a field
//     path. Diagonal entries mark induction variables. Joins average
//     affinities when the update appears in both branches and omit it
//     otherwise; multiple recursive updates combine as 1−∏(1−aᵢ); path
//     affinities multiply along the path.
//  3. A two-pass heuristic (§4.3): per loop, pick the induction variable
//     with the strongest update; choose migration if its affinity meets
//     the 90% threshold or the loop is parallelizable (contains futures),
//     else caching; loops without induction variables inherit the parent's
//     migration variable. A second pass demotes inner loops to caching
//     when migrating would serialize a parallel outer loop on one node —
//     the bottleneck rule of Figure 5.
package core

import "repro/internal/lang"

// Params are the heuristic's tunables, with the paper's defaults: the
// migration threshold is 90% and the default path-affinity 70% — chosen so
// that, by default, list traversals cache, tree traversals migrate, and
// tree searches cache. (The paper notes the break-even affinity is ≈86%
// given the 7× migration:miss cost ratio.)
type Params struct {
	Threshold       float64
	DefaultAffinity float64
}

// DefaultParams returns the paper's settings.
func DefaultParams() Params {
	return Params{Threshold: 0.90, DefaultAffinity: 0.70}
}

// fieldAffinity returns the path affinity of one field of a struct, in
// [0,1], applying the default when the program gave no hint. Non-pointer
// fields have affinity 1 (dereferencing them does not leave the object).
func fieldAffinity(prog *lang.Program, structName, field string, p Params) float64 {
	s := prog.Struct(structName)
	if s == nil {
		return p.DefaultAffinity
	}
	f := s.Field(field)
	if f == nil {
		return p.DefaultAffinity
	}
	if !f.Type.IsPtr() {
		return 1
	}
	if f.Affinity < 0 {
		return p.DefaultAffinity
	}
	// Out-of-range hints are a lint error (core.Lint); the analysis
	// clamps so probabilities stay probabilities.
	if f.Affinity > 100 {
		return 1
	}
	return float64(f.Affinity) / 100
}

// orCombine merges two update affinities when both updates execute in the
// same iteration (multiple recursive calls): the probability that at least
// one stays local, 1−(1−a)(1−b), assuming independence (§4.2, Figure 4).
func orCombine(a, b float64) float64 { return 1 - (1-a)*(1-b) }

// avgCombine merges updates appearing in both branches of a join, assuming
// each branch is taken about half the time (§4.2).
func avgCombine(a, b float64) float64 { return (a + b) / 2 }
