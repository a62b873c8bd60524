package record

import (
	"fmt"
	"strings"
)

// This file renders pinned record sets as markdown: the reproduction's
// Table 2 and Table 3, each row annotated with the delta against the
// previous pinned baseline (did this change regress anything?) and — for
// Table 2 — against the paper's published speedup (how faithful is the
// reproduction?).

func pct(new, old float64) string {
	if old == 0 {
		return "—"
	}
	d := 100 * (new - old) / old
	if d == 0 {
		return "0%"
	}
	return fmt.Sprintf("%+.2f%%", d)
}

// Table2Markdown renders one row per benchmark from its pinned records at
// machine size procs. prev may be nil (first pin) or hold the previous
// baseline set for the Δ-prev column.
func Table2Markdown(cur, prev []File, procs int) string {
	prevBy := make(map[string]File, len(prev))
	for _, f := range prev {
		prevBy[f.Benchmark] = f
	}
	var sb strings.Builder
	fmt.Fprintf(&sb, "## Table 2 — speedups at P=%d\n\n", procs)
	sb.WriteString("| Benchmark | Choice | Seq cycles | P cycles | Δ prev | S(P) | Paper S(P) | Δ paper | M-only S(P) |\n")
	sb.WriteString("|---|---|---:|---:|---:|---:|---:|---:|---:|\n")
	for _, f := range cur {
		base, okB := f.Lookup("baseline")
		heur, okH := f.Lookup(HeuristicKey(procs, "local"))
		monly, okM := f.Lookup(MigrateOnlyKey(procs))
		if !okB || !okH {
			fmt.Fprintf(&sb, "| %s | %s | _missing records_ | | | | | | |\n", f.Benchmark, f.Choice)
			continue
		}
		choice := f.Choice
		if f.Whole {
			choice += " W"
		}
		speedup := float64(base.Cycles) / float64(heur.Cycles)

		dPrev := "—"
		if pf, ok := prevBy[f.Benchmark]; ok {
			if ph, ok := pf.Lookup(HeuristicKey(procs, "local")); ok && ph.Scale == heur.Scale {
				dPrev = pct(float64(heur.Cycles), float64(ph.Cycles))
			}
		}
		paperS, dPaper := "—", "—"
		if ps, ok := PaperSpeedup(f.Benchmark, procs); ok {
			paperS = fmt.Sprintf("%.2f", ps)
			dPaper = pct(speedup, ps)
		}
		mo := "—"
		if okM {
			mo = fmt.Sprintf("%.2f", float64(base.Cycles)/float64(monly.Cycles))
		}
		fmt.Fprintf(&sb, "| %s | %s | %d | %d | %s | %.2f | %s | %s | %s |\n",
			f.Benchmark, choice, base.Cycles, heur.Cycles, dPrev, speedup, paperS, dPaper, mo)
	}
	if len(cur) > 0 {
		scale := 0
		if r, ok := cur[0].Lookup("baseline"); ok {
			scale = r.Scale
		}
		fmt.Fprintf(&sb, "\nScale 1/%d of the paper's problem sizes; paper speedups are the CM-5 numbers at the same P.\n", scale)
	}
	return sb.String()
}

// Table3Markdown renders caching statistics for the migrate-and-cache
// benchmarks from their pinned records: reference counts under local
// knowledge, miss rates under all three schemes, and the cumulative page
// count, with Δ-prev on the miss rate that drives the gate.
func Table3Markdown(cur, prev []File, procs int) string {
	prevBy := make(map[string]File, len(prev))
	for _, f := range prev {
		prevBy[f.Benchmark] = f
	}
	var sb strings.Builder
	fmt.Fprintf(&sb, "## Table 3 — caching statistics at P=%d\n\n", procs)
	sb.WriteString("| Benchmark | CacheWr (1k) | %Remote | CacheRd (1k) | %Remote | miss% local | miss% global | miss% bilateral | Δ prev (local) | Pages |\n")
	sb.WriteString("|---|---:|---:|---:|---:|---:|---:|---:|---:|---:|\n")
	for _, f := range cur {
		if f.Choice != "M+C" {
			continue
		}
		local, okL := f.Lookup(HeuristicKey(procs, "local"))
		global, okG := f.Lookup(HeuristicKey(procs, "global"))
		bilat, okB := f.Lookup(HeuristicKey(procs, "bilateral"))
		if !okL || !okG || !okB {
			fmt.Fprintf(&sb, "| %s | _missing records_ | | | | | | | | |\n", f.Benchmark)
			continue
		}
		s := local.Stats
		pctW, pctR := 0.0, 0.0
		if s.CacheableWrites > 0 {
			pctW = 100 * float64(s.RemoteWrites) / float64(s.CacheableWrites)
		}
		if s.CacheableReads > 0 {
			pctR = 100 * float64(s.RemoteReads) / float64(s.CacheableReads)
		}
		dPrev := "—"
		if pf, ok := prevBy[f.Benchmark]; ok {
			if pl, ok := pf.Lookup(HeuristicKey(procs, "local")); ok && pl.Scale == local.Scale {
				dPrev = pct(local.MissPct, pl.MissPct)
			}
		}
		fmt.Fprintf(&sb, "| %s | %.1f | %.3f | %.1f | %.3f | %.2f | %.2f | %.2f | %s | %d |\n",
			f.Benchmark,
			float64(s.CacheableWrites)/1000, pctW,
			float64(s.CacheableReads)/1000, pctR,
			local.MissPct, global.MissPct, bilat.MissPct, dPrev, local.Pages)
	}
	return sb.String()
}

// Report renders the full baseline report: both tables plus a gate summary
// when regressions are present.
func Report(cur, prev []File, procs int, regs []Regression) string {
	var sb strings.Builder
	sb.WriteString("# Olden benchmark baselines\n\n")
	sb.WriteString(Table2Markdown(cur, prev, procs))
	sb.WriteString("\n")
	sb.WriteString(Table3Markdown(cur, prev, procs))
	if len(regs) > 0 {
		sb.WriteString("\n## Regressions\n\n")
		for _, r := range regs {
			fmt.Fprintf(&sb, "- %s\n", r)
		}
	}
	return sb.String()
}
