package analysis

import "go/ast"

// checkThreadCapture flags uses of the parent thread inside a Spawn
// closure.  An rt.Thread belongs to the body that runs as it; the closure
// passed to Spawn runs as the child thread, at points where the parent is
// suspended in the middle of an operation of its own.  Using the parent
// *rt.Thread there advances the parent's clock out of virtual-time order
// and Syncs its scheduler entry — runnable, not running — as though it
// were the running thread, which corrupts the scheduler.  The closure
// must use its own *rt.Thread parameter.
func checkThreadCapture(p *Package) []Finding {
	var fs []Finding
	for _, file := range p.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok || len(call.Args) != 2 || !p.isSpawn(call) {
				return true
			}
			parent, ok := ast.Unparen(call.Args[0]).(*ast.Ident)
			if !ok {
				return true
			}
			pobj := p.Info.Uses[parent]
			if pobj == nil {
				return true
			}
			body, ok := ast.Unparen(call.Args[1]).(*ast.FuncLit)
			if !ok {
				return true
			}
			ast.Inspect(body.Body, func(m ast.Node) bool {
				if id, ok := m.(*ast.Ident); ok && p.Info.Uses[id] == pobj {
					fs = append(fs, p.finding("thread-capture", id.Pos(),
						"parent thread %q used inside Spawn closure; use the closure's own *rt.Thread parameter", id.Name))
				}
				return true
			})
			return true
		})
	}
	return fs
}
