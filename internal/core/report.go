package core

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/lang"
)

// FuncLoops returns the top-level control loops of a function, or nil.
func (r *Report) FuncLoops(fn string) []*Loop {
	for _, fr := range r.Funcs {
		if fr.Fn.Name == fn {
			return fr.Loops
		}
	}
	return nil
}

// FindLoop returns the loop whose label has the given prefix, or nil.
// Labels look like "TreeAdd/rec" or "Walk/while@4:3". When the prefix
// matches several loops the result is deterministic and favours the most
// canonical match: an exact label match beats a proper prefix, an original
// loop beats a call-expanded instance of it, a shallower loop beats a
// deeper one, and remaining ties break on label then program order.
func (r *Report) FindLoop(prefix string) *Loop {
	type cand struct {
		l     *Loop
		depth int
		order int
	}
	var cands []cand
	order := 0
	var walk func(l *Loop, depth int)
	walk = func(l *Loop, depth int) {
		if strings.HasPrefix(l.Label, prefix) {
			cands = append(cands, cand{l, depth, order})
		}
		order++
		for _, c := range l.Children {
			walk(c, depth+1)
		}
	}
	for _, fr := range r.Funcs {
		for _, l := range fr.Loops {
			walk(l, 0)
		}
	}
	if len(cands) == 0 {
		return nil
	}
	sort.SliceStable(cands, func(i, j int) bool {
		a, b := cands[i], cands[j]
		if ae, be := a.l.Label == prefix, b.l.Label == prefix; ae != be {
			return ae
		}
		if ao, bo := a.l.origin == nil, b.l.origin == nil; ao != bo {
			return ao
		}
		if a.depth != b.depth {
			return a.depth < b.depth
		}
		if a.l.Label != b.l.Label {
			return a.l.Label < b.l.Label
		}
		return a.order < b.order
	})
	return cands[0].l
}

// MechanismForName reports the mechanism the heuristic assigned to the
// dereference sites an rt.Site tag stands for. The tag is the variable
// segment of a site name ("treeadd.t" → "t") and is matched per function
// against the flat namespace the subset gives each function: a pointer
// variable with that name, or any pointer variable whose pointed-to
// struct has that name ("mst.vertex" matches a `struct vertex *v`).
// The result is ChooseMigrate when any matching dereference site
// migrates; found is false when no site matches, i.e. the tag does not
// map onto the kernel at all.
func (r *Report) MechanismForName(tag string) (mech Mechanism, found bool) {
	match := map[string]map[string]bool{}
	for _, fn := range r.Prog.Funcs {
		vars := map[string]bool{}
		for v, st := range lang.PtrVars(fn) {
			if v == tag || st == tag {
				vars[v] = true
			}
		}
		match[fn.Name] = vars
	}
	mech = ChooseCache
	for _, s := range r.DerefSites() {
		if !match[s.Fn][s.Base] {
			continue
		}
		found = true
		if s.Mech == ChooseMigrate {
			mech = ChooseMigrate
		}
	}
	return mech, found
}

// SitesString renders the per-dereference-site mechanism assignment — the
// view of the analysis closest to what the compiler would emit.
func (r *Report) SitesString() string {
	var sb strings.Builder
	last := ""
	for _, s := range r.DerefSites() {
		if s.Fn != last {
			fmt.Fprintf(&sb, "function %s:\n", s.Fn)
			last = s.Fn
		}
		loop := s.Loop
		if loop == "" {
			loop = "(top level)"
		}
		fmt.Fprintf(&sb, "  %-8s deref of %-12s at %-8s in %s\n", s.Mech, s.Base, s.Pos, loop)
	}
	return sb.String()
}

// UsesMigrationOnly reports whether every dereference site in the program
// was assigned migration — the paper's "M" rows of Table 2 versus "M+C".
func (r *Report) UsesMigrationOnly() bool {
	for _, s := range r.DerefSites() {
		if s.Mech == ChooseCache {
			return false
		}
	}
	return true
}

// String renders the report: per function, the loop tree with update
// matrices and choices — the output of cmd/oldenc.
func (r *Report) String() string {
	var sb strings.Builder
	for _, fr := range r.Funcs {
		if len(fr.Loops) == 0 {
			continue
		}
		fmt.Fprintf(&sb, "function %s:\n", fr.Fn.Name)
		for _, l := range fr.Loops {
			writeLoop(&sb, l, 1)
		}
	}
	return sb.String()
}

func writeLoop(sb *strings.Builder, l *Loop, depth int) {
	ind := strings.Repeat("  ", depth)
	kind := "loop"
	if l.Kind == RecursionLoop {
		kind = "recursion"
	}
	inst := ""
	if l.ArgBase != nil {
		inst = " (call instance)"
	}
	fmt.Fprintf(sb, "%s%s %s%s", ind, kind, l.Label, inst)
	if l.Parallel {
		sb.WriteString(" [parallel]")
	}
	sb.WriteString("\n")
	// Update matrix, rows sorted for stable output.
	rows := make([]string, 0, len(l.Matrix))
	for s := range l.Matrix {
		rows = append(rows, s)
	}
	sort.Strings(rows)
	for _, s := range rows {
		cols := make([]string, 0, len(l.Matrix[s]))
		for t := range l.Matrix[s] {
			cols = append(cols, t)
		}
		sort.Strings(cols)
		for _, t := range cols {
			fmt.Fprintf(sb, "%s  update %s ← %s  affinity %.0f%%\n", ind, s, t, 100*l.Matrix[s][t])
		}
	}
	switch {
	case l.Inherited:
		fmt.Fprintf(sb, "%s  choice: migrate %s (inherited from parent)\n", ind, l.Var)
	case l.Var == "":
		fmt.Fprintf(sb, "%s  choice: cache (no induction variable)\n", ind)
	case l.Bottleneck:
		fmt.Fprintf(sb, "%s  choice: cache %s (bottleneck inside parallel loop)\n", ind, l.Var)
	case l.Mech == ChooseMigrate:
		why := fmt.Sprintf("affinity %.0f%% ≥ threshold", 100*l.Affinity)
		if l.Parallel {
			why = "parallelizable"
		}
		fmt.Fprintf(sb, "%s  choice: migrate %s (%s)\n", ind, l.Var, why)
	default:
		fmt.Fprintf(sb, "%s  choice: cache %s (affinity %.0f%% below threshold)\n", ind, l.Var, 100*l.Affinity)
	}
	for _, c := range l.Children {
		writeLoop(sb, c, depth+1)
	}
}
