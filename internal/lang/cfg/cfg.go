// Package cfg builds basic-block control-flow graphs of mini-C functions
// (internal/lang): loops expanded with back edges, every return wired to
// the exit. The dataflow lints in internal/core (use-before-init, dead
// stores, unreachable code, guaranteed-nil dereference) and the effect
// analysis's alias flow solve over them. Graphs expose integer adjacency
// (Len/Entry/Exit/Succs/Preds) so they plug directly into the generic
// solver in internal/dataflow.
package cfg

import "repro/internal/lang"

// Block is one basic block: a run of straight-line statements optionally
// terminated by a branch condition. A conditional block has exactly two
// successors, the true edge first; an unconditional block falls through to
// at most one.
type Block struct {
	ID      int
	Stmts   []lang.Stmt
	Cond    lang.Expr // terminating branch condition, nil if none
	CondPos lang.Pos  // position of the branch statement owning Cond
	succs   []*Block
	preds   []*Block
}

// Succs returns the successor blocks (true edge first for conditionals).
func (b *Block) Succs() []*Block { return b.succs }

// Preds returns the predecessor blocks.
func (b *Block) Preds() []*Block { return b.preds }

// Branch returns the true- and false-successors of a conditional block,
// or ok=false when the block does not end in a two-way branch.
func (b *Block) Branch() (t, f *Block, ok bool) {
	if b.Cond == nil || len(b.succs) != 2 {
		return nil, nil, false
	}
	return b.succs[0], b.succs[1], true
}

// Graph is a control-flow graph. Blocks[i].ID == i; the entry has no
// predecessors and the exit no successors.
type Graph struct {
	Blocks []*Block

	entry, exit *Block
	succIDs     [][]int
	predIDs     [][]int
}

// Block returns the block with the given ID.
func (g *Graph) Block(i int) *Block { return g.Blocks[i] }

// Len, Entry, Exit, Succs and Preds implement the integer adjacency view
// consumed by dataflow.Solve.

// Len returns the number of blocks.
func (g *Graph) Len() int { return len(g.Blocks) }

// Entry returns the entry block's ID.
func (g *Graph) Entry() int { return g.entry.ID }

// Exit returns the exit block's ID.
func (g *Graph) Exit() int { return g.exit.ID }

// Succs returns the successor IDs of block i (true edge first).
func (g *Graph) Succs(i int) []int { return g.succIDs[i] }

// Preds returns the predecessor IDs of block i.
func (g *Graph) Preds(i int) []int { return g.predIDs[i] }

// builder accumulates blocks during construction.
type builder struct {
	g       *Graph
	returns []*Block // blocks ended by a return
}

func (bl *builder) newBlock() *Block {
	b := &Block{ID: len(bl.g.Blocks)}
	bl.g.Blocks = append(bl.g.Blocks, b)
	return b
}

func (bl *builder) edge(from, to *Block) {
	from.succs = append(from.succs, to)
	to.preds = append(to.preds, from)
}

// finish freezes the integer adjacency.
func (bl *builder) finish() {
	g := bl.g
	g.succIDs = make([][]int, len(g.Blocks))
	g.predIDs = make([][]int, len(g.Blocks))
	for i, b := range g.Blocks {
		for _, s := range b.succs {
			g.succIDs[i] = append(g.succIDs[i], s.ID)
		}
		for _, p := range b.preds {
			g.predIDs[i] = append(g.predIDs[i], p.ID)
		}
	}
}

// Build constructs the full control-flow graph of a function: loops are
// expanded with back edges and every return flows to the exit block.
func Build(fn *lang.FuncDecl) *Graph {
	bl := &builder{g: &Graph{}}
	entry := bl.newBlock()
	end := bl.stmt(entry, fn.Body)
	exit := bl.newBlock()
	bl.edge(end, exit) // implicit fall-off-the-end return
	for _, b := range bl.returns {
		bl.edge(b, exit)
	}
	bl.g.entry, bl.g.exit = entry, exit
	bl.finish()
	return bl.g
}

// stmt appends statement s to the graph starting at block cur and returns
// the block where control continues afterwards. Statements after a return
// land in a fresh block with no predecessors (unreachable).
func (bl *builder) stmt(cur *Block, s lang.Stmt) *Block {
	switch s := s.(type) {
	case *lang.Block:
		for _, st := range s.Stmts {
			cur = bl.stmt(cur, st)
		}
		return cur

	case *lang.VarDecl, *lang.Assign, *lang.ExprStmt:
		cur.Stmts = append(cur.Stmts, s)
		return cur

	case *lang.Return:
		cur.Stmts = append(cur.Stmts, s)
		bl.returns = append(bl.returns, cur)
		return bl.newBlock()

	case *lang.If:
		cur.Cond, cur.CondPos = s.Cond, s.Pos
		thenB := bl.newBlock()
		bl.edge(cur, thenB) // true edge
		if s.Else != nil {
			elseB := bl.newBlock()
			bl.edge(cur, elseB) // false edge
			thenEnd := bl.stmt(thenB, s.Then)
			elseEnd := bl.stmt(elseB, s.Else)
			join := bl.newBlock()
			bl.edge(thenEnd, join)
			bl.edge(elseEnd, join)
			return join
		}
		thenEnd := bl.stmt(thenB, s.Then)
		join := bl.newBlock()
		bl.edge(cur, join) // false edge
		bl.edge(thenEnd, join)
		return join

	case *lang.While:
		head := bl.newBlock()
		bl.edge(cur, head)
		head.Cond, head.CondPos = s.Cond, s.Pos
		body := bl.newBlock()
		bl.edge(head, body) // true edge
		after := bl.newBlock()
		bl.edge(head, after) // false edge
		bodyEnd := bl.stmt(body, s.Body)
		bl.edge(bodyEnd, head) // back edge
		return after

	case *lang.For:
		if s.Init != nil {
			cur = bl.stmt(cur, s.Init)
		}
		head := bl.newBlock()
		bl.edge(cur, head)
		body := bl.newBlock()
		bl.edge(head, body)
		after := bl.newBlock()
		if s.Cond != nil {
			head.Cond, head.CondPos = s.Cond, s.Pos
			bl.edge(head, after) // false edge
		}
		// A missing condition means for(;;): after stays unreachable.
		end := bl.stmt(body, s.Body)
		if s.Post != nil {
			end = bl.stmt(end, s.Post)
		}
		bl.edge(end, head) // back edge
		return after
	}
	return cur
}

// ConstCond evaluates a compile-time-constant branch condition: integer
// and float literals are their truth value, NULL is false, and ! of a
// constant negates. Everything else is not constant.
func ConstCond(e lang.Expr) (val, ok bool) {
	switch e := e.(type) {
	case *lang.IntLit:
		return e.V != 0, true
	case *lang.FloatLit:
		return e.V != 0, true
	case *lang.Null:
		return false, true
	case *lang.Unary:
		if e.Op == "!" {
			if v, ok := ConstCond(e.X); ok {
				return !v, true
			}
		}
	}
	return false, false
}

// Reachable computes which blocks some execution can reach from the entry.
// A branch on a constant condition follows only its taken edge, so the
// body of `if (0)` and the code after `while (1)` both count as
// unreachable.
func (g *Graph) Reachable() []bool {
	seen := make([]bool, len(g.Blocks))
	var dfs func(b *Block)
	dfs = func(b *Block) {
		if seen[b.ID] {
			return
		}
		seen[b.ID] = true
		if t, f, ok := b.Branch(); ok {
			if v, isConst := ConstCond(b.Cond); isConst {
				if v {
					dfs(t)
				} else {
					dfs(f)
				}
				return
			}
			dfs(t)
			dfs(f)
			return
		}
		for _, s := range b.succs {
			dfs(s)
		}
	}
	dfs(g.entry)
	return seen
}
