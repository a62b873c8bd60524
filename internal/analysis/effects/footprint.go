package effects

import (
	"sort"

	"repro/internal/lang"
)

// This file is the footprint API the phase-slicing pass
// (internal/analysis/phases) consumes: per-statement effect footprints
// assembled from the same chain resolution the summaries use, with call
// sites folded in through the finished interprocedural summaries.

// StmtEffects is the flow-insensitive effect footprint of one statement
// subtree, callee summaries included. Unlike the per-function Summary it
// does not subtract initializing stores to fresh allocations made by the
// statement itself — a phase footprint must name every region the phase
// touches, because the phase boundary is exactly where "fresh" objects
// become visible to the next phase.
type StmtEffects struct {
	Reads  []Region
	Writes []Region
	// Allocs reports whether the statement (or a callee) can allocate.
	Allocs bool
	// Calls lists the defined functions called directly, source order,
	// deduplicated.
	Calls []string
	// Extern lists undefined functions called directly or through
	// callees (the alloc primitive excluded), sorted.
	Extern []string
	// Futures reports a futurecall in the statement or any callee.
	Futures bool
}

// StmtEffects computes the footprint of one statement of fn, folding in
// the finished summary of every function it calls. fn must belong to the
// analyzed program.
func (r *Result) StmtEffects(fn *lang.FuncDecl, s lang.Stmt) StmtEffects {
	te := lang.PtrVars(fn)
	var fp StmtEffects
	reads := map[Region]bool{}
	writes := map[Region]bool{}
	extern := map[string]bool{}
	seenCall := map[string]bool{}

	var walkExpr func(e lang.Expr, asStore bool)
	walkExpr = func(e lang.Expr, asStore bool) {
		switch e := e.(type) {
		case *lang.Arrow:
			regs := chainRegions(r.Prog, te, e)
			for i, reg := range regs {
				if asStore && i == len(regs)-1 {
					writes[reg] = true
				} else {
					reads[reg] = true
				}
			}
			walkExpr(e.X, false)
		case *lang.Call:
			if e.Future {
				fp.Futures = true
			}
			for _, a := range e.Args {
				walkExpr(a, false)
			}
			if e.Name == AllocName {
				fp.Allocs = true
				return
			}
			sum := r.Summary(e.Name)
			if sum == nil {
				extern[e.Name] = true
				return
			}
			if !seenCall[e.Name] {
				seenCall[e.Name] = true
				fp.Calls = append(fp.Calls, e.Name)
			}
			for _, reg := range sum.Reads {
				reads[reg] = true
			}
			for _, reg := range sum.Writes {
				writes[reg] = true
			}
			for _, x := range sum.Extern {
				extern[x] = true
			}
			if sum.Futures {
				fp.Futures = true
			}
			if sum.Allocs {
				fp.Allocs = true
			}
		case *lang.Binary:
			walkExpr(e.L, false)
			walkExpr(e.R, false)
		case *lang.Unary:
			walkExpr(e.X, false)
		case *lang.Touch:
			walkExpr(e.E, false)
		}
	}

	// Each expression hangs off a statement and goes to walkExpr whole; a
	// store's left-hand chain goes first, marked as the store.
	lang.Inspect(s, func(n lang.Node) bool {
		switch n := n.(type) {
		case *lang.Assign:
			if a, ok := n.LHS.(*lang.Arrow); ok {
				walkExpr(a, true)
			}
			walkExpr(n.RHS, false)
			return false
		case lang.Expr:
			walkExpr(n, false)
			return false
		}
		return true
	})

	fp.Reads = sortedRegions(reads)
	fp.Writes = sortedRegions(writes)
	fp.Extern = sortedStrings(extern)
	return fp
}

// CalleeClosure returns the names of every defined function reachable
// from the given roots through direct calls, the roots included, sorted.
func CalleeClosure(prog *lang.Program, roots []string) []string {
	seen := map[string]bool{}
	var visit func(name string)
	visit = func(name string) {
		if seen[name] {
			return
		}
		fn := prog.Func(name)
		if fn == nil {
			return
		}
		seen[name] = true
		for _, callee := range calleeNames(fn) {
			visit(callee)
		}
	}
	for _, root := range roots {
		visit(root)
	}
	return sortedStrings(seen)
}

// ContainsLoop reports whether the statement subtree contains a while or
// for loop.
func ContainsLoop(s lang.Stmt) bool {
	found := false
	lang.Inspect(s, func(n lang.Node) bool {
		switch n.(type) {
		case *lang.While, *lang.For:
			found = true
		}
		return !found
	})
	return found
}

func sortedRegions(set map[Region]bool) []Region {
	out := make([]Region, 0, len(set))
	for r := range set {
		out = append(out, r)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Struct != out[j].Struct {
			return out[i].Struct < out[j].Struct
		}
		return out[i].Field < out[j].Field
	})
	return out
}

func sortedStrings(set map[string]bool) []string {
	out := make([]string, 0, len(set))
	for s := range set {
		out = append(out, s)
	}
	sort.Strings(out)
	return out
}
