package effects

import (
	"sort"

	"repro/internal/core"
	"repro/internal/lang"
	"repro/internal/lang/cfg"
)

// Diff is one site where the alias-aware classification disagrees with
// the §4.2/§4.3 heuristic's mechanism choice.
type Diff struct {
	Fn     string
	Loop   string // enclosing loop label
	Var    string // the variable whose dereference sites change
	Pos    lang.Pos
	Old    core.Mechanism
	New    core.Mechanism
	Reason string // machine-readable: "aliased-write:<region> via <w>", "derived-from:<v>"
}

// computeDiffs compares the heuristic's per-loop choices against the
// alias analysis. Two disagreements are possible:
//
//   - Demotion (migrate → cache). The heuristic migrates a loop's
//     traversal variable on affinity alone; if the same iteration also
//     stores through a second pointer that may alias a pre-existing
//     object of the same region, the migrated computation can race its
//     own writes' coherence — the alias-aware choice is to cache, which
//     the protocol keeps sound.
//   - Promotion (cache → migrate). Inside a migrating loop every other
//     variable defaults to caching; a variable rebound every iteration
//     from the migration variable's own fields (w = v->kid) lands on
//     v's home with the declared affinity, so its dereferences are
//     better served by the migration already happening.
func (r *Result) computeDiffs() {
	for _, fr := range r.Report.Funcs {
		sum := r.byName[fr.Fn.Name]
		if sum == nil {
			continue
		}
		var walk func(l *core.Loop)
		walk = func(l *core.Loop) {
			if l.Fn != nil && l.Fn.Name == fr.Fn.Name {
				r.diffLoop(fr.Fn.Name, sum, l)
			}
			for _, c := range l.Children {
				walk(c)
			}
		}
		for _, l := range fr.Loops {
			walk(l)
		}
	}
	sort.SliceStable(r.Diffs, func(i, j int) bool {
		a, b := r.Diffs[i], r.Diffs[j]
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Col != b.Pos.Col {
			return a.Pos.Col < b.Pos.Col
		}
		if a.Fn != b.Fn {
			return a.Fn < b.Fn
		}
		if a.Var != b.Var {
			return a.Var < b.Var
		}
		return a.Reason < b.Reason
	})
}

func (r *Result) diffLoop(fn string, sum *Summary, l *core.Loop) {
	if l.Var == "" || l.Mech != core.ChooseMigrate {
		return
	}
	body := l.Body()
	if body == nil {
		return
	}

	// Demotion: a store through w ≠ var whose base may alias a
	// pre-existing object (not provably fresh) in the loop body.
	for _, st := range cfg.StmtStores(body) {
		if st.Base == l.Var {
			continue
		}
		rec, ok := sum.findStore(st.Base, st.Pos)
		if !ok || rec.baseAV.freshOnly() {
			continue
		}
		r.Diffs = append(r.Diffs, Diff{
			Fn: fn, Loop: l.Label, Var: l.Var, Pos: st.Pos,
			Old: core.ChooseMigrate, New: core.ChooseCache,
			Reason: "aliased-write:" + rec.region.String() + " via " + st.Base,
		})
	}

	// Promotion: variables derived from the migration variable inside
	// the iteration whose dereferences the heuristic left cached.
	derived := derivedVars(l.Var, body)
	reported := map[string]bool{}
	for _, d := range cfg.StmtDerefs(body) {
		if d.Base == l.Var || !derived[d.Base] || reported[d.Base] {
			continue
		}
		reported[d.Base] = true
		r.Diffs = append(r.Diffs, Diff{
			Fn: fn, Loop: l.Label, Var: d.Base, Pos: d.Pos,
			Old: core.ChooseCache, New: core.ChooseMigrate,
			Reason: "derived-from:" + l.Var,
		})
	}
}

// findStore looks up the recorded store with a matching base and
// position.
func (s *Summary) findStore(base string, pos lang.Pos) (storeRec, bool) {
	for _, rec := range s.stores {
		if rec.base == base && rec.pos == pos {
			return rec, true
		}
	}
	return storeRec{}, false
}

// derivedVars computes the variables that, at the end of one loop
// iteration, provably hold a value reached from v through field loads
// made this iteration. The walk is structural: If contributes only
// bindings derived on both branches, nested loops kill everything they
// assign (their own analysis owns them), any other assignment kills the
// binding.
func derivedVars(v string, body lang.Stmt) map[string]bool {
	derived := map[string]bool{v: true}
	var walk func(s lang.Stmt, derived map[string]bool)
	kill := func(s lang.Stmt, derived map[string]bool) {
		for _, name := range cfg.StmtDefs(s) {
			if name != v {
				delete(derived, name)
			}
		}
	}
	walk = func(s lang.Stmt, derived map[string]bool) {
		switch s := s.(type) {
		case *lang.Block:
			for _, st := range s.Stmts {
				walk(st, derived)
			}
		case *lang.VarDecl:
			if s.Name == v {
				return
			}
			if s.Init != nil && derivedExpr(s.Init, derived) {
				derived[s.Name] = true
			} else {
				delete(derived, s.Name)
			}
		case *lang.Assign:
			id, ok := s.LHS.(*lang.Ident)
			if !ok || id.Name == v {
				return
			}
			if derivedExpr(s.RHS, derived) {
				derived[id.Name] = true
			} else {
				delete(derived, id.Name)
			}
		case *lang.If:
			then := copySet(derived)
			walk(s.Then, then)
			els := copySet(derived)
			if s.Else != nil {
				walk(s.Else, els)
			}
			for name := range derived {
				if !then[name] || !els[name] {
					delete(derived, name)
				}
			}
			for name := range then {
				if els[name] {
					derived[name] = true
				}
			}
		case *lang.While, *lang.For:
			kill(s, derived)
		}
	}
	walk(body, derived)
	return derived
}

// derivedExpr reports whether an expression's value is reached from the
// derived set through field loads: an Arrow chain rooted at a derived
// variable, a derived variable itself, or either wrapped in touch().
func derivedExpr(e lang.Expr, derived map[string]bool) bool {
	switch e := e.(type) {
	case *lang.Ident:
		return derived[e.Name]
	case *lang.Arrow:
		base, ok := lang.ChainBase(e)
		return ok && derived[base]
	case *lang.Touch:
		return derivedExpr(e.E, derived)
	}
	return false
}

func copySet(s map[string]bool) map[string]bool {
	out := make(map[string]bool, len(s))
	for k, v := range s {
		out[k] = v
	}
	return out
}
