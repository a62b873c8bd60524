package core

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/lang"
)

// This file is the mini-C lint pass: positioned diagnostics about the
// program's annotations and loop structure that the selection heuristic
// itself has no reason to reject, surfaced through `oldenc -lint`.
//
// Checks:
//
//   - affinity-range (error): a path-affinity annotation outside [0,100].
//     The parser accepts any integer so the diagnostic can point at the
//     field; the analysis clamps when computing affinities.
//   - unused-affinity (warning): an annotated field never dereferenced
//     inside any control loop — the hint cannot influence any update
//     matrix, so it is dead weight (or a typo for a field that is).
//   - shadowed-induction (warning): a loop whose induction variable is
//     also an enclosing loop's induction variable. The subset has one flat
//     namespace per function, so the inner loop is advancing the outer
//     loop's variable — legal, but almost always an oversight.
//   - bottleneck-demotion (warning): a loop instance the second heuristic
//     pass demoted to caching (Figure 5). The demotion is correct but
//     silent in the report's summary line; -lint surfaces every one.

// DiagSeverity ranks a diagnostic.
type DiagSeverity int

const (
	// DiagWarning marks suspicious but legal programs.
	DiagWarning DiagSeverity = iota
	// DiagError marks annotations that are out of contract.
	DiagError
)

// String names the severity.
func (s DiagSeverity) String() string {
	if s == DiagError {
		return "error"
	}
	return "warning"
}

// Diag is one positioned lint diagnostic.
type Diag struct {
	Pos  lang.Pos
	Sev  DiagSeverity
	Code string
	Msg  string
}

// String renders the diagnostic in the conventional line:col form.
func (d Diag) String() string {
	return fmt.Sprintf("%s: %s: %s [%s]", d.Pos, d.Sev, d.Msg, d.Code)
}

// Lint runs every lint check over the analyzed program and returns the
// diagnostics in deterministic order: by position, then severity (errors
// first), then code and message. Individual checks may emit in any order
// (the dataflow lints iterate block IDs, not source lines), so the sort
// here is what keeps golden files and -json output stable as checks are
// added.
func (r *Report) Lint() []Diag {
	var diags []Diag
	diags = append(diags, lintAffinityRange(r.Prog)...)
	diags = append(diags, lintUnusedAffinity(r)...)
	diags = append(diags, lintShadowedInduction(r)...)
	diags = append(diags, lintBottleneckDemotions(r)...)
	sort.SliceStable(diags, func(i, j int) bool {
		a, b := diags[i], diags[j]
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Col != b.Pos.Col {
			return a.Pos.Col < b.Pos.Col
		}
		if a.Sev != b.Sev {
			return a.Sev > b.Sev // errors before warnings at one position
		}
		if a.Code != b.Code {
			return a.Code < b.Code
		}
		return a.Msg < b.Msg
	})
	return diags
}

// LintString renders diagnostics one per line (the `oldenc -lint` output).
func LintString(diags []Diag) string {
	var sb strings.Builder
	for _, d := range diags {
		sb.WriteString(d.String())
		sb.WriteString("\n")
	}
	return sb.String()
}

// lintAffinityRange flags __affinity values outside [0,100].
func lintAffinityRange(prog *lang.Program) []Diag {
	var diags []Diag
	for _, s := range prog.Structs {
		for _, f := range s.Fields {
			if f.Affinity != -1 && (f.Affinity < 0 || f.Affinity > 100) {
				diags = append(diags, Diag{
					Pos: f.Pos, Sev: DiagError, Code: "affinity-range",
					Msg: fmt.Sprintf("affinity %d%% on %s.%s outside [0,100]", f.Affinity, s.Name, f.Name),
				})
			}
		}
	}
	return diags
}

// lintUnusedAffinity flags annotated fields that no control loop ever
// dereferences: their hints can never reach an update matrix.
func lintUnusedAffinity(r *Report) []Diag {
	type sf struct{ st, field string }
	used := map[sf]bool{}

	for _, fn := range r.Prog.Funcs {
		te := lang.PtrVars(fn)
		record := func(n lang.Node) bool {
			if a, ok := n.(*lang.Arrow); ok {
				if st := exprStruct(r.Prog, te, a.X); st != "" {
					used[sf{st, a.Field}] = true
				}
			}
			return true
		}
		// A recursive function's whole body is its recursion control
		// loop; otherwise only while/for statements count.
		if IsRecursive(fn) {
			lang.Inspect(fn.Body, record)
			continue
		}
		lang.Inspect(fn.Body, func(n lang.Node) bool {
			switch n.(type) {
			case *lang.While, *lang.For:
				lang.Inspect(n, record)
				return false
			}
			return true
		})
	}

	var diags []Diag
	for _, s := range r.Prog.Structs {
		for _, f := range s.Fields {
			if f.Affinity == -1 {
				continue
			}
			if !used[sf{s.Name, f.Name}] {
				diags = append(diags, Diag{
					Pos: f.Pos, Sev: DiagWarning, Code: "unused-affinity",
					Msg: fmt.Sprintf("affinity hint on %s.%s is never dereferenced in any control loop", s.Name, f.Name),
				})
			}
		}
	}
	return diags
}

// lintShadowedInduction flags loops whose induction variable is also an
// enclosing loop's induction variable in the same function.
func lintShadowedInduction(r *Report) []Diag {
	var diags []Diag
	var walk func(l *Loop)
	walk = func(l *Loop) {
		if l.origin == nil && l.Var != "" && !l.Inherited {
			for a := l.Parent; a != nil; a = a.Parent {
				if a.origin != nil || a.Fn != l.Fn {
					break // crossed a call-instance boundary
				}
				if a.Var == l.Var && !a.Inherited {
					diags = append(diags, Diag{
						Pos: l.Pos, Sev: DiagWarning, Code: "shadowed-induction",
						Msg: fmt.Sprintf("loop %s reuses induction variable %q of enclosing loop %s", l.Label, l.Var, a.Label),
					})
					break
				}
			}
		}
		for _, c := range l.Children {
			walk(c)
		}
	}
	for _, fr := range r.Funcs {
		for _, l := range fr.Loops {
			walk(l)
		}
	}
	return diags
}

// lintBottleneckDemotions surfaces every demotion made by the heuristic's
// second pass: the loop instance that was serialized inside a parallel
// ancestor and fell back to caching.
func lintBottleneckDemotions(r *Report) []Diag {
	var diags []Diag
	var walk func(l *Loop)
	walk = func(l *Loop) {
		if l.Bottleneck {
			parent := "a parallel loop"
			for a := l.Parent; a != nil; a = a.Parent {
				if a.Parallel {
					parent = a.Label
					break
				}
			}
			diags = append(diags, Diag{
				Pos: l.Pos, Sev: DiagWarning, Code: "bottleneck-demotion",
				Msg: fmt.Sprintf("loop %s demoted to caching: migrating %q would serialize parallel loop %s", l.Label, l.Var, parent),
			})
		}
		for _, c := range l.Children {
			walk(c)
		}
	}
	for _, fr := range r.Funcs {
		for _, l := range fr.Loops {
			walk(l)
		}
	}
	return diags
}
