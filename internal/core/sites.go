package core

import "repro/internal/lang"

// DerefSite is one pointer-dereference site of the program with the
// mechanism the heuristic assigned to it: a dereference of the enclosing
// control loop's migration variable migrates; every other dereference —
// other variables, and dereferences outside any control loop — caches.
type DerefSite struct {
	Fn   string
	Loop string // enclosing loop label, "" at top level
	Base string // the variable whose dereference this is
	Mech Mechanism
	Pos  lang.Pos
}

// DerefSites enumerates every dereference site per function, in
// lang.Inspect's order. The traversal mirrors the loop tree built by the
// analysis: a recursion loop encloses the whole body of a recursive
// function.
func (r *Report) DerefSites() []DerefSite {
	var sites []DerefSite
	for _, fr := range r.Funcs {
		var rec *Loop
		var loops []*Loop
		for _, l := range fr.Loops {
			if l.Kind == RecursionLoop {
				rec = l
			}
		}
		collectSyntactic(fr.Loops, &loops)

		// A while or for statement's subtree (condition, init and post
		// included) belongs to the loop built from its body.
		loopOf := func(body lang.Stmt, cur *Loop) *Loop {
			for _, l := range loops {
				if l.bodyStmt == body {
					return l
				}
			}
			return cur
		}

		var walk func(root lang.Node, cur *Loop)
		walk = func(root lang.Node, cur *Loop) {
			lang.Inspect(root, func(n lang.Node) bool {
				switch n := n.(type) {
				case *lang.While:
					if n != root {
						walk(n, loopOf(n.Body, cur))
						return false
					}
				case *lang.For:
					if n != root {
						walk(n, loopOf(n.Body, cur))
						return false
					}
				case *lang.Arrow:
					// The whole chain is one site on its base variable;
					// any other base is searched for chains inside it.
					base, rooted := lang.ChainBase(n)
					if !rooted {
						return true
					}
					site := DerefSite{Fn: fr.Fn.Name, Base: base, Mech: ChooseCache, Pos: n.Pos}
					if cur != nil {
						site.Loop = cur.Label
						if cur.Mech == ChooseMigrate && cur.Var == base && !cur.DemotedByContext {
							site.Mech = ChooseMigrate
						}
					}
					sites = append(sites, site)
					return false
				}
				return true
			})
		}
		walk(fr.Fn.Body, rec)
	}
	return sites
}

// collectSyntactic gathers syntactic (non-instance) loops from a tree.
func collectSyntactic(ls []*Loop, out *[]*Loop) {
	for _, l := range ls {
		if l.ArgBase != nil {
			continue
		}
		if l.Kind == SyntacticLoop {
			*out = append(*out, l)
		}
		collectSyntactic(l.Children, out)
	}
}
