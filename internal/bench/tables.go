package bench

import (
	"fmt"
	"strings"

	"repro/internal/gaddr"
	"repro/internal/rt"
)

// This file prints what is not rendered from run records: Table 1 (the
// registered benchmarks' descriptions) and Figure 2 (a list walk, not a
// benchmark). Tables 2 and 3 and the curves are suites (recording.go)
// rendered by internal/bench/record. The caller must import the benchmark
// packages for their registration side effects (cmd/oldenbench and the
// repository-root benchmarks do).

// Table1 prints the benchmark descriptions (paper Table 1).
func Table1() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "Table 1: Benchmark Descriptions\n\n")
	fmt.Fprintf(&sb, "%-12s %-72s %s\n", "Benchmark", "Description", "Problem Size")
	for _, name := range Names() {
		info, _ := Get(name)
		fmt.Fprintf(&sb, "%-12s %-72s %s\n", name, info.Description, info.PaperSize)
	}
	return sb.String()
}

// Figure2 reproduces the paper's Figure 2 analysis: an N-element list
// evenly divided among P processors, traversed under each mechanism for
// both layouts, reporting the communication counts against the closed
// forms: P−1 migrations blocked, N−1 cyclic. Cached, the paper counts
// N(P−1)/P remote nodes; the walk here makes two references per node
// (LoadInt at 0, LoadPtr at 8) and the column counts references, so its
// closed form is 2N(P−1)/P.
func Figure2(n, p int) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "Figure 2: list distributions, N=%d items over P=%d processors\n\n", n, p)
	fmt.Fprintf(&sb, "%-9s %-9s %12s %12s %14s %12s\n",
		"layout", "mechanism", "migrations", "remote refs", "traversal cyc", "closed form")
	type layout struct {
		name   string
		procOf func(i int) int
	}
	layouts := []layout{
		{"blocked", func(i int) int { return BlockedProc(i, n, p) }},
		{"cyclic", func(i int) int { return CyclicProc(i, p) }},
	}
	for _, lay := range layouts {
		for _, mech := range []rt.Mechanism{rt.Migrate, rt.Cache} {
			r := rt.New(rt.Config{Procs: p})
			// Build the list.
			nodes := make([]gaddr.GP, n)
			for i := range nodes {
				nodes[i] = RawAlloc(r, lay.procOf(i), 16)
			}
			for i := range nodes {
				RawStore(r, nodes[i], 0, uint64(i))
				next := gaddr.Nil
				if i+1 < n {
					next = nodes[i+1]
				}
				RawStorePtr(r, nodes[i], 8, next)
			}
			site := &rt.Site{Name: "fig2.walk", Mech: mech}
			r.ResetForKernel()
			var cyc int64
			r.Run(0, func(t *rt.Thread) {
				for g := nodes[0]; !g.IsNil(); g = t.LoadPtr(site, g, 8) {
					t.LoadInt(site, g, 0)
					t.Work(10)
				}
			})
			cyc = r.M.Makespan()
			s := r.M.Stats.Snapshot()
			form := ""
			switch {
			case mech == rt.Migrate && lay.name == "blocked":
				form = fmt.Sprintf("P-1 = %d", p-1)
			case mech == rt.Migrate && lay.name == "cyclic":
				form = fmt.Sprintf("N-1 = %d", n-1)
			default:
				form = fmt.Sprintf("2N(P-1)/P = %d", 2*n*(p-1)/p)
			}
			fmt.Fprintf(&sb, "%-9s %-9s %12d %12d %14d %12s\n",
				lay.name, mech, s.Migrations, s.RemoteReads+s.RemoteWrites, cyc, form)
		}
	}
	sb.WriteString("\nBlocked lists favour migration; cyclic lists favour caching —\nthe crossover the selection heuristic is built around (§4).\n")
	return sb.String()
}
