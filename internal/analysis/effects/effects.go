// Package effects is an interprocedural, bottom-up summary analysis over
// mini-C. Per function it computes a side-effect/alias summary — the heap
// regions (struct fields) read and written, the parameters whose referents
// may be mutated or stored away, and whether the function is observably
// pure — together with two facts about its cost: whether every invocation
// returns, and whether it can allocate.
//
// The summaries have one client, the phase planner
// (internal/analysis/phases), which folds them into per-phase footprints
// and scheme-invariance verdicts.
//
// The per-variable alias facts (aval.go) flow through each function body
// as a lang.Fold, the fold's only client, and functions are processed
// bottom-up over the call-graph SCCs so every call site folds in its
// callee's finished summary. Calls to the undefined function "alloc" are
// allocation sites; calls to any other undefined function are extern —
// unknown effects, so summaries go conservative.
package effects

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/core"
	"repro/internal/lang"
)

// AllocName is the undefined-function name treated as an allocation
// primitive rather than an extern call.
const AllocName = "alloc"

// Region is one heap region at field granularity: a struct field. The
// subset's type system makes this sound as an alias partition — pointers
// to different structs never alias, and all heap accesses are field
// accesses.
type Region struct {
	Struct string
	Field  string
}

// String renders the region as struct.field.
func (r Region) String() string { return r.Struct + "." + r.Field }

// Summary is one function's interprocedural effect summary.
type Summary struct {
	Name   string
	Pos    lang.Pos
	Params []string

	// Reads and Writes are the heap regions the function (or anything it
	// calls) may read and write, sorted. Initializing stores to provably
	// fresh allocations are not Writes: an object that has not escaped
	// is invisible to the caller.
	Reads  []Region
	Writes []Region
	// Escapes lists the parameters whose referents may be written or
	// stored into the heap (directly or by a callee), in parameter order.
	Escapes []string
	// Extern lists the undefined functions called (transitively),
	// excluding the alloc primitive, sorted. A non-empty Extern poisons
	// purity, Returns and Allocs.
	Extern []string
	// Pure means no heap writes, no escaping parameters and no extern
	// calls. Allocation and initialization of fresh objects do not break
	// purity: they are invisible to the caller's heap.
	Pure bool
	// Futures means the function (or a callee) issues a futurecall.
	Futures bool
	// Recursive marks self-recursion; Mutual marks membership in a
	// call-graph cycle of more than one function.
	Recursive bool
	Mutual    bool

	// Returns means every invocation provably returns: each loop makes
	// progress toward its exit on every path and any recursion descends a
	// structure (termination.go). Allocs means an alloc call is reachable,
	// directly or through a callee. Functions the analysis does not follow
	// (extern callers, mutual recursion) get Returns false, Allocs true.
	Returns bool
	Allocs  bool

	ret aval // what the return value may alias
}

// EffectsLine renders the summary canonically: equal lines mean equal
// summaries, which is what the fixpoint test rests on. The two cost
// bits appear only where they are not the common case, and not after
// extern or mutual, which imply both.
func (s *Summary) EffectsLine() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "reads=%s writes=%s escapes={%s}",
		regionSet(s.Reads), regionSet(s.Writes), strings.Join(s.Escapes, ","))
	fmt.Fprintf(&sb, " pure=%v", s.Pure)
	if s.Futures {
		sb.WriteString(" parallel")
	}
	if s.Recursive {
		sb.WriteString(" recursive")
	}
	if s.Mutual {
		sb.WriteString(" mutual")
	}
	if len(s.Extern) > 0 {
		fmt.Fprintf(&sb, " extern={%s}", strings.Join(s.Extern, ","))
	}
	if len(s.Extern) == 0 && !s.Mutual {
		if !s.Returns {
			sb.WriteString(" may-not-return")
		}
		if s.Allocs {
			sb.WriteString(" allocates")
		}
	}
	return sb.String()
}

func regionSet(rs []Region) string {
	parts := make([]string, len(rs))
	for i, r := range rs {
		parts[i] = r.String()
	}
	return "{" + strings.Join(parts, ",") + "}"
}

// Result is the whole-program analysis result.
type Result struct {
	Prog   *lang.Program
	Params core.Params
	// Report is the §4.2/§4.3 heuristic's own report on the program; the
	// phase planner reads its site mechanisms.
	Report *core.Report
	// Summaries holds one summary per function, in source order
	// (declaration position, then name — the deterministic-ordering
	// contract shared with the lint diagnostics).
	Summaries []*Summary

	byName map[string]*Summary
}

// Summary returns a function's summary by name, or nil.
func (r *Result) Summary(name string) *Summary { return r.byName[name] }

// Analyze computes the effect summaries of a parsed program.
func Analyze(prog *lang.Program, params core.Params) *Result {
	res := &Result{
		Prog:   prog,
		Params: params,
		Report: core.Analyze(prog, params),
		byName: map[string]*Summary{},
	}
	for _, comp := range sccs(prog) {
		res.solveSCC(comp)
	}
	for _, fn := range prog.Funcs {
		res.Summaries = append(res.Summaries, res.byName[fn.Name])
	}
	sort.SliceStable(res.Summaries, func(i, j int) bool {
		a, b := res.Summaries[i], res.Summaries[j]
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Col != b.Pos.Col {
			return a.Pos.Col < b.Pos.Col
		}
		return a.Name < b.Name
	})
	return res
}

// AnalyzeSource parses and analyzes a mini-C program.
func AnalyzeSource(src string, params core.Params) (*Result, error) {
	prog, err := lang.Parse(src)
	if err != nil {
		return nil, err
	}
	return Analyze(prog, params), nil
}

// solveSCC iterates the effect summaries of one call-graph component to a
// fixpoint (region sets, escape masks and return aliases only grow, so
// termination is immediate from the finite domains), then derives the
// two cost bits in a single final pass per function.
func (r *Result) solveSCC(comp []*lang.FuncDecl) {
	inSCC := map[string]bool{}
	for _, fn := range comp {
		inSCC[fn.Name] = true
		r.byName[fn.Name] = &Summary{
			Name:   fn.Name,
			Pos:    fn.Pos,
			Params: paramNames(fn),
		}
	}
	for changed := true; changed; {
		changed = false
		for _, fn := range comp {
			fa := newFnAnalysis(r, fn, inSCC)
			next := fa.summarize()
			if !equalEffects(r.byName[fn.Name], next) {
				changed = true
			}
			r.byName[fn.Name] = next
		}
	}
	for _, fn := range comp {
		fa := newFnAnalysis(r, fn, inSCC)
		fa.termination(r.byName[fn.Name])
	}
}

func paramNames(fn *lang.FuncDecl) []string {
	out := make([]string, len(fn.Params))
	for i, p := range fn.Params {
		out[i] = p.Name
	}
	return out
}

// equalEffects compares the fixpoint-relevant parts of two summaries.
func equalEffects(a, b *Summary) bool {
	return a.EffectsLine() == b.EffectsLine() && a.ret == b.ret
}

// sccs returns the strongly connected components of the defined-function
// call graph in bottom-up (callee-first) order — Tarjan's algorithm emits
// components in reverse topological order, which is exactly the order a
// bottom-up summary analysis wants.
func sccs(prog *lang.Program) [][]*lang.FuncDecl {
	index := map[string]int{}
	low := map[string]int{}
	onStack := map[string]bool{}
	var stack []*lang.FuncDecl
	var out [][]*lang.FuncDecl
	next := 0

	var strongconnect func(fn *lang.FuncDecl)
	strongconnect = func(fn *lang.FuncDecl) {
		index[fn.Name] = next
		low[fn.Name] = next
		next++
		stack = append(stack, fn)
		onStack[fn.Name] = true
		for _, callee := range calleeNames(fn) {
			g := prog.Func(callee)
			if g == nil {
				continue
			}
			if _, seen := index[g.Name]; !seen {
				strongconnect(g)
				if low[g.Name] < low[fn.Name] {
					low[fn.Name] = low[g.Name]
				}
			} else if onStack[g.Name] && index[g.Name] < low[fn.Name] {
				low[fn.Name] = index[g.Name]
			}
		}
		if low[fn.Name] == index[fn.Name] {
			var comp []*lang.FuncDecl
			for {
				f := stack[len(stack)-1]
				stack = stack[:len(stack)-1]
				onStack[f.Name] = false
				comp = append(comp, f)
				if f == fn {
					break
				}
			}
			out = append(out, comp)
		}
	}
	for _, fn := range prog.Funcs {
		if _, seen := index[fn.Name]; !seen {
			strongconnect(fn)
		}
	}
	return out
}

// calleeNames lists the function names fn calls, in source order with
// duplicates.
func calleeNames(fn *lang.FuncDecl) []string {
	var out []string
	for _, c := range callsIn(fn.Body) {
		out = append(out, c.Name)
	}
	return out
}

// callsIn collects every call expression in a statement subtree.
func callsIn(s lang.Stmt) []*lang.Call {
	var out []*lang.Call
	lang.Inspect(s, func(n lang.Node) bool {
		if c, ok := n.(*lang.Call); ok {
			out = append(out, c)
		}
		return true
	})
	return out
}

// typeEnv maps pointer variables to their pointed-to struct
// (lang.PtrVars builds it).
type typeEnv map[string]string

// chainRegions resolves the regions an Arrow chain touches, innermost
// first: for p->a->b with p pointing to S, the regions are S.a and T.b
// where T is the struct S.a points to. Resolution stops at an unknown
// link (undeclared struct or field).
func chainRegions(prog *lang.Program, te typeEnv, chain *lang.Arrow) []Region {
	var arrows []*lang.Arrow
	e := lang.Expr(chain)
	for {
		a, ok := e.(*lang.Arrow)
		if !ok {
			break
		}
		arrows = append(arrows, a)
		e = a.X
	}
	id, ok := e.(*lang.Ident)
	if !ok {
		return nil
	}
	st := te[id.Name]
	var out []Region
	for i := len(arrows) - 1; i >= 0; i-- {
		if st == "" {
			break
		}
		a := arrows[i]
		out = append(out, Region{Struct: st, Field: a.Field})
		st = ""
		if sd := prog.Struct(out[len(out)-1].Struct); sd != nil {
			if fd := sd.Field(a.Field); fd != nil && fd.Type.IsPtr() {
				st = fd.Type.Struct
			}
		}
	}
	return out
}
