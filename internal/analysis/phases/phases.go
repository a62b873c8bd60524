// Package phases implements the static phase-slicing pass: it partitions
// a mini-C kernel into an ordered chain of phases at build/compute
// statement boundaries, computes each phase's read/write/alloc footprint
// from the interprocedural effect summaries, and proves scheme-invariance
// of prefixes — a phase whose footprint contains no cached-mechanism
// reads and no cross-processor shared writes must produce identical heap
// state under all three coherence schemes, so any run may reuse another
// run's heap image at that boundary.
//
// The result is a Plan: the ordered phase list with per-phase footprints
// and invariance verdicts with machine-readable refusal reasons.
package phases

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/analysis/effects"
	"repro/internal/core"
	"repro/internal/lang"
)

// Kind labels for Phase.Kind.
const (
	KindBuild   = "build"
	KindCompute = "compute"
)

// Phase is one element of the sliced chain.
type Phase struct {
	Index int    `json:"index"`
	Name  string `json:"name"`
	Kind  string `json:"kind"`
	// Fn and Line locate the phase's first statement; both are zero for
	// the synthetic build phase.
	Fn    string `json:"fn,omitempty"`
	Line  int    `json:"line,omitempty"`
	Stmts int    `json:"stmts"`

	// Reads and Writes are the heap regions the phase may touch,
	// callee summaries folded in, sorted.
	Reads  []string `json:"reads,omitempty"`
	Writes []string `json:"writes,omitempty"`
	Allocs bool     `json:"allocs"`
	// Calls lists the defined functions the phase calls directly.
	Calls []string `json:"calls,omitempty"`

	// MigrateSites and CacheSites count the dereference sites the phase
	// can reach, classified by the §4 heuristic's mechanism choice.
	MigrateSites int `json:"migrate_sites"`
	CacheSites   int `json:"cache_sites"`
	// Parallel reports a futurecall inside the phase or a callee.
	Parallel bool `json:"parallel"`

	// Invariant is the scheme-invariance verdict; Reasons lists the
	// machine-readable obligations that failed when it is false.
	Invariant bool     `json:"invariant"`
	Reasons   []string `json:"reasons,omitempty"`
}

// Plan is the machine-readable phase plan.
type Plan struct {
	// Entries lists the slicing roots: defined functions no other
	// defined function calls, in source order.
	Entries []string `json:"entries,omitempty"`
	Phases  []Phase  `json:"phases,omitempty"`
	// InvariantPrefix is the number of leading phases proven
	// scheme-invariant (0 when the plan is refused).
	InvariantPrefix int `json:"invariant_prefix"`
	// Certified means the plan was not refused and every phase in the
	// chain is scheme-invariant.
	Certified bool `json:"certified"`
	// Refused means the slicer cannot stand behind any *compute* phase;
	// Reasons says why, deterministically. The synthetic build phase,
	// when present, is scheme-invariant by harness construction — no
	// simulated accesses happen before the kernel — so it survives a
	// refusal and remains reusable.
	Refused bool     `json:"refused"`
	Reasons []string `json:"reasons,omitempty"`
}

// Options configures slicing.
type Options struct {
	// IncludeBuild prepends the synthetic build phase: the harness
	// materializes the kernel's input structure through the raw heap
	// API before virtual time starts, so the build performs no simulated
	// accesses at all and is scheme-invariant by construction. Set it
	// when the program is a benchmark kernel; leave it unset for
	// standalone sources, which have no harness around them.
	IncludeBuild bool
}

// Compute slices the analyzed program into its phase plan.
func Compute(res *effects.Result, opt Options) *Plan {
	p := &Plan{}
	entries := sliceEntries(res)
	for _, e := range entries {
		p.Entries = append(p.Entries, e.Name)
	}

	// Plan-level refusals: no root to slice from, or a reachable
	// function that may not return — if a phase may not terminate, no
	// later boundary is guaranteed to be reached, so the chain as a
	// whole proves nothing.
	if len(entries) == 0 {
		p.refuse("no-entry-function")
	}
	for _, name := range effects.CalleeClosure(res.Prog, p.Entries) {
		if sum := res.Summary(name); sum != nil && !sum.Returns {
			p.refuse("unbounded-steps:" + name)
		}
	}

	if opt.IncludeBuild {
		p.Phases = append(p.Phases, Phase{
			Name:      KindBuild,
			Kind:      KindBuild,
			Allocs:    true,
			Invariant: true,
		})
	}
	for _, e := range entries {
		for _, ph := range slice(res, e) {
			ph.Index = len(p.Phases)
			p.Phases = append(p.Phases, ph)
		}
	}

	p.InvariantPrefix = len(p.Phases)
	for i, ph := range p.Phases {
		if !ph.Invariant {
			p.InvariantPrefix = i
			break
		}
	}
	if p.Refused {
		// A refusal voids every compute verdict; only the synthetic
		// build phase (invariant by construction, not by analysis)
		// survives.
		p.InvariantPrefix = 0
		if len(p.Phases) > 0 && p.Phases[0].Kind == KindBuild {
			p.InvariantPrefix = 1
		}
	}
	p.Certified = !p.Refused && p.InvariantPrefix == len(p.Phases) && len(p.Phases) > 0
	return p
}

// ComputeSource parses, analyzes and slices a mini-C program.
func ComputeSource(src string, opt Options) (*Plan, error) {
	res, err := effects.AnalyzeSource(src, core.DefaultParams())
	if err != nil {
		return nil, err
	}
	return Compute(res, opt), nil
}

func (p *Plan) refuse(reason string) {
	p.Refused = true
	for _, r := range p.Reasons {
		if r == reason {
			return
		}
	}
	p.Reasons = append(p.Reasons, reason)
	sort.Strings(p.Reasons)
}

// sliceEntries returns the slicing roots in source order: defined
// functions that no *other* defined function calls (self-recursion does
// not disqualify a root).
func sliceEntries(res *effects.Result) []*lang.FuncDecl {
	called := map[string]bool{}
	for _, fn := range res.Prog.Funcs {
		for _, callee := range res.StmtEffects(fn, fn.Body).Calls {
			if callee != fn.Name {
				called[callee] = true
			}
		}
	}
	var out []*lang.FuncDecl
	for _, fn := range res.Prog.Funcs {
		if !called[fn.Name] {
			out = append(out, fn)
		}
	}
	return out
}

// slice cuts one entry function's top-level statement list into phases.
// A statement is heavy when it contains a loop or any call: those are
// the statements that correspond to a build or compute pass over the
// heap structure, and each heavy statement after the first starts a new
// phase. Light statements (declarations, scalar arithmetic, guards)
// ride with the first heavy statement that follows them; trailing
// lights (the final return) ride with the last phase.
func slice(res *effects.Result, fn *lang.FuncDecl) []Phase {
	stmts := fn.Body.Stmts
	if len(stmts) == 0 {
		return nil
	}
	first := -1
	for i, s := range stmts {
		if heavy(res, fn, s) {
			first = i
			break
		}
	}
	var starts []int
	for i := first + 1; first >= 0 && i < len(stmts); i++ {
		if heavy(res, fn, stmts[i]) {
			starts = append(starts, i)
		}
	}
	bounds := append([]int{0}, starts...)
	bounds = append(bounds, len(stmts))

	sites := res.Report.DerefSites()
	var phases []Phase
	for k := 0; k+1 < len(bounds); k++ {
		group := stmts[bounds[k]:bounds[k+1]]
		ph := footprint(res, fn, group)
		ph.Name = fmt.Sprintf("%s#%d", fn.Name, k+1)
		ph.Kind = KindCompute
		ph.Fn = fn.Name
		ph.Line = lang.StmtPos(group[0]).Line
		ph.Stmts = len(group)
		hi := 0
		if k+2 < len(bounds) {
			hi = lang.StmtPos(stmts[bounds[k+1]]).Line
		}
		countSites(&ph, sites, fn.Name, res.Prog, ph.Line, hi)
		judge(&ph)
		phases = append(phases, ph)
	}
	return phases
}

func heavy(res *effects.Result, fn *lang.FuncDecl, s lang.Stmt) bool {
	if effects.ContainsLoop(s) {
		return true
	}
	fp := res.StmtEffects(fn, s)
	return len(fp.Calls) > 0 || len(fp.Extern) > 0 || fp.Allocs
}

// footprint folds the statement effects of a phase's statement group.
func footprint(res *effects.Result, fn *lang.FuncDecl, group []lang.Stmt) Phase {
	var ph Phase
	reads := map[string]bool{}
	writes := map[string]bool{}
	extern := map[string]bool{}
	seenCall := map[string]bool{}
	for _, s := range group {
		fp := res.StmtEffects(fn, s)
		for _, r := range fp.Reads {
			reads[r.String()] = true
		}
		for _, w := range fp.Writes {
			writes[w.String()] = true
		}
		for _, x := range fp.Extern {
			extern[x] = true
		}
		for _, c := range fp.Calls {
			if !seenCall[c] {
				seenCall[c] = true
				ph.Calls = append(ph.Calls, c)
			}
		}
		ph.Allocs = ph.Allocs || fp.Allocs
		ph.Parallel = ph.Parallel || fp.Futures
	}
	ph.Reads = sortedKeys(reads)
	ph.Writes = sortedKeys(writes)
	for _, x := range sortedKeys(extern) {
		ph.Reasons = append(ph.Reasons, "extern-call:"+x)
	}
	return ph
}

// countSites attributes the heuristic's dereference sites to a phase:
// every site inside a function the phase calls (transitively) belongs to
// it, and sites in the entry function itself belong to the phase whose
// statement range covers them — unless the entry is in its own callee
// closure (recursion), in which case the closure already claimed them.
func countSites(ph *Phase, sites []core.DerefSite, entry string, prog *lang.Program, lo, hi int) {
	inClosure := map[string]bool{}
	for _, name := range effects.CalleeClosure(prog, ph.Calls) {
		inClosure[name] = true
	}
	for _, s := range sites {
		n := false
		if inClosure[s.Fn] {
			n = true
		} else if s.Fn == entry && s.Pos.Line >= lo && (hi == 0 || s.Pos.Line < hi) {
			n = true
		}
		if !n {
			continue
		}
		switch s.Mech {
		case core.ChooseCache:
			ph.CacheSites++
		case core.ChooseMigrate:
			ph.MigrateSites++
		}
	}
}

// judge applies the scheme-invariance proof obligation to one phase:
//
//   - an extern call makes the footprint incomplete (reason already
//     recorded by footprint);
//   - mixing cached and migrated sites couples the phase to protocol
//     ordering ("mixed-mechanisms");
//   - a cached phase that spawns futures can read stale lines another
//     processor is writing ("parallel-caching");
//   - a cached phase that writes shared regions publishes under
//     scheme-dependent visibility ("cached-write:R").
//
// A migrate-only phase computes at the data's home processor, so its
// heap effects are scheme-independent even with writes and futures.
func judge(ph *Phase) {
	if ph.CacheSites > 0 && ph.MigrateSites > 0 {
		ph.Reasons = append(ph.Reasons, "mixed-mechanisms")
	}
	if ph.CacheSites > 0 && ph.MigrateSites == 0 {
		if ph.Parallel {
			ph.Reasons = append(ph.Reasons, "parallel-caching")
		}
		for _, w := range ph.Writes {
			ph.Reasons = append(ph.Reasons, "cached-write:"+w)
		}
	}
	sort.Strings(ph.Reasons)
	ph.Invariant = len(ph.Reasons) == 0
}

// String renders the plan for humans; TestPhasesGoldens pins it.
func (p *Plan) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "phase plan: entries=%s phases=%d invariant-prefix=%d/%d certified=%t\n",
		braced(p.Entries), len(p.Phases), p.InvariantPrefix, len(p.Phases), p.Certified)
	if p.Refused {
		fmt.Fprintf(&b, "  REFUSED: %s\n", strings.Join(p.Reasons, ", "))
	}
	for _, ph := range p.Phases {
		verdict := "invariant"
		if !ph.Invariant {
			verdict = "varies"
		}
		loc := ""
		if ph.Kind != KindBuild {
			loc = fmt.Sprintf(" %s:%d stmts=%d", ph.Fn, ph.Line, ph.Stmts)
		}
		fmt.Fprintf(&b, "  [%d] %-18s %-9s%s\n", ph.Index, ph.Name, verdict, loc)
		if ph.Kind == KindBuild {
			fmt.Fprintf(&b, "      raw heap image; no simulated accesses by construction\n")
			continue
		}
		fmt.Fprintf(&b, "      reads=%s writes=%s allocs=%t sites=migrate:%d,cache:%d parallel=%t\n",
			braced(ph.Reads), braced(ph.Writes), ph.Allocs,
			ph.MigrateSites, ph.CacheSites, ph.Parallel)
		if len(ph.Reasons) > 0 {
			fmt.Fprintf(&b, "      reasons=%s\n", braced(ph.Reasons))
		}
	}
	return b.String()
}

func braced(xs []string) string {
	return "{" + strings.Join(xs, ",") + "}"
}

func sortedKeys(set map[string]bool) []string {
	out := make([]string, 0, len(set))
	for k := range set {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
