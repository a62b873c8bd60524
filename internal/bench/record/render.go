package record

import (
	"fmt"
	"slices"
	"strconv"
	"strings"
)

// This file is the one table renderer: the reproduction's Table 2, Table 3
// and per-benchmark speedup curve as markdown, from record files alone —
// whether `oldenbench -table/-curve` just collected them or they are the
// pinned BENCH_<name>.json. The tables and the curve print the paper's
// published number beside each measured one (how faithful is the
// reproduction?); the tables annotate each row with the delta against a
// previous record set when there is one (did this change regress anything?).

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

// speedup is the one Table 2 cell: the file's baseline cycles over those of
// the run under key, a dash when either record is absent.
func (f File) speedup(key string) string {
	base, okB := f.Lookup("baseline")
	r, ok := f.Lookup(key)
	if !okB || !ok {
		return "—"
	}
	return fmt.Sprintf("%.2f", float64(base.Cycles)/float64(r.Cycles))
}

// paper formats a published number, a dash where the paper prints none.
func paper(v float64, ok bool) string {
	if !ok {
		return "—"
	}
	return fmt.Sprintf("%.2f", v)
}

// pctRemote is the one Table 3 %Remote cell.
func pctRemote(remote, cacheable int64) float64 {
	if cacheable == 0 {
		return 0
	}
	return 100 * float64(remote) / float64(cacheable)
}

// deltaPrev renders val's change between r and the same configuration of
// the same benchmark in prev; deltas across scales are meaningless and
// render, like a missing record, as a dash.
func deltaPrev(prev []File, r RunRecord, val func(RunRecord) float64) string {
	for _, pf := range prev {
		if pf.Benchmark != r.Benchmark {
			continue
		}
		if p, ok := pf.Lookup(r.Key()); ok && p.Scale == r.Scale {
			return pct(val(r), val(p))
		}
	}
	return "—"
}

// Table2Markdown renders one row per benchmark: baseline cycles, the
// heuristic speedup under scheme at each machine size of procs beside the
// paper's, and the migrate-only speedup at the largest size (the paper
// publishes that column at P=32 only). prev may be nil or hold a previous
// record set for the Δ-prev column, the cycle delta at the largest size.
func Table2Markdown(cur, prev []File, procs []int, scheme string) string {
	maxP := procs[len(procs)-1]
	var sb strings.Builder
	fmt.Fprintf(&sb, "## Table 2 — speedups under %s coherence\n\n", scheme)
	head, rule := "| Benchmark | Choice | Seq cycles |", "|---|---|---:|"
	for _, p := range procs {
		head += fmt.Sprintf(" S(%d) | paper |", p)
		rule += "---:|---:|"
	}
	fmt.Fprintf(&sb, "%s M-only S(%d) | paper | Δ prev |\n%s---:|---:|---:|\n", head, maxP, rule)
	scale := 0
	for _, f := range cur {
		base, ok := f.Lookup("baseline")
		if !ok {
			fmt.Fprintf(&sb, "| %s | %s | _missing records_ |\n", f.Benchmark, f.Choice)
			continue
		}
		scale = base.Scale
		choice := f.Choice
		if f.Whole {
			choice += " W"
		}
		fmt.Fprintf(&sb, "| %s | %s | %d |", f.Benchmark, choice, base.Cycles)
		for _, p := range procs {
			fmt.Fprintf(&sb, " %s | %s |", f.speedup(HeuristicKey(p, scheme)), paper(PaperSpeedup(f.Benchmark, p)))
		}
		paperMO, dPrev := "—", "—"
		if maxP == 32 {
			paperMO = paper(PaperMigrateOnly(f.Benchmark))
		}
		if heur, ok := f.Lookup(HeuristicKey(maxP, scheme)); ok {
			dPrev = deltaPrev(prev, heur, func(r RunRecord) float64 { return float64(r.Cycles) })
		}
		fmt.Fprintf(&sb, " %s | %s | %s |\n", f.speedup(MigrateOnlyKey(maxP, scheme)), paperMO, dPrev)
	}
	fmt.Fprintf(&sb, "\nScale 1/%d of the paper's problem sizes; paper columns are the CM-5 numbers at the same P.\n", scale)
	return sb.String()
}

// Table3Markdown renders caching statistics for the migrate-and-cache
// benchmarks from their records at one machine size: reference counts under
// local knowledge, miss rates under all three schemes, and the cumulative
// page count, with Δ-prev on the miss rate that drives the gate. Every
// measured cell has the paper's beside it at P=32, the size the paper
// published, and a dash elsewhere.
func Table3Markdown(cur, prev []File, procs int) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "## Table 3 — caching statistics at P=%d\n\n", procs)
	sb.WriteString("| Benchmark | CacheWr (1k) | paper | %Remote | paper | CacheRd (1k) | paper | %Remote | paper | miss% local | paper | miss% global | paper | miss% bilateral | paper | Δ prev (local) | Pages | paper |\n")
	sb.WriteString("|---|" + strings.Repeat("---:|", 17) + "\n")
	for _, f := range cur {
		if f.Choice != "M+C" {
			continue
		}
		local, okL := f.Lookup(HeuristicKey(procs, "local"))
		global, okG := f.Lookup(HeuristicKey(procs, "global"))
		bilat, okB := f.Lookup(HeuristicKey(procs, "bilateral"))
		if !okL || !okG || !okB {
			fmt.Fprintf(&sb, "| %s | _missing records_ |%s\n", f.Benchmark, strings.Repeat(" |", 16))
			continue
		}
		p, okP := PaperTable3(f.Benchmark)
		cell := func(v float64) string {
			if !okP || procs != 32 {
				return "—"
			}
			return strconv.FormatFloat(v, 'g', -1, 64)
		}
		s := local.Stats
		fmt.Fprintf(&sb, "| %s | %.1f | %s | %.3f | %s | %.1f | %s | %.3f | %s | %.2f | %s | %.2f | %s | %.2f | %s | %s | %d | %s |\n",
			f.Benchmark,
			float64(s.CacheableWrites)/1000, cell(p.CacheWr), pctRemote(s.RemoteWrites, s.CacheableWrites), cell(p.RemoteWr),
			float64(s.CacheableReads)/1000, cell(p.CacheRd), pctRemote(s.RemoteReads, s.CacheableReads), cell(p.RemoteRd),
			local.MissPct, cell(p.MissLocal), global.MissPct, cell(p.MissGlobal), bilat.MissPct, cell(p.MissBilateral),
			deltaPrev(prev, local, func(r RunRecord) float64 { return r.MissPct }), local.Pages, cell(float64(p.Pages)))
	}
	return sb.String()
}

// CurveMarkdown renders one benchmark's speedup curve under all three
// modes — the per-benchmark view behind Table 2's discussion paragraphs —
// with the heuristic run's migrations and miss rate at each machine size.
func CurveMarkdown(f File, procs []int, scheme string) string {
	base, _ := f.Lookup("baseline")
	var sb strings.Builder
	fmt.Fprintf(&sb, "## %s speedup curve — scale 1/%d, %s coherence, baseline %d cycles\n\n",
		f.Benchmark, base.Scale, scheme, base.Cycles)
	sb.WriteString("| P | heuristic | paper | migrate-only | cache-only | migrations | miss% |\n")
	sb.WriteString("|---:|---:|---:|---:|---:|---:|---:|\n")
	for _, p := range procs {
		h, _ := f.Lookup(HeuristicKey(p, scheme))
		fmt.Fprintf(&sb, "| %d | %s | %s | %s | %s | %d | %.2f |\n", p,
			f.speedup(HeuristicKey(p, scheme)), paper(PaperSpeedup(f.Benchmark, p)),
			f.speedup(MigrateOnlyKey(p, scheme)), f.speedup(ParallelKey(p, scheme, "cache-only")),
			h.Stats.Migrations, h.MissPct)
	}
	return sb.String()
}

// Report renders the full baseline report — both tables at the machine
// sizes the records were collected at, under local knowledge as pinned —
// plus a gate summary when regressions are present.
func Report(cur, prev []File, regs []Regression) string {
	var procs []int
	for _, f := range cur {
		for _, r := range f.Records {
			if !r.Baseline && !slices.Contains(procs, r.Procs) {
				procs = append(procs, r.Procs)
			}
		}
	}
	slices.Sort(procs)
	var sb strings.Builder
	sb.WriteString("# Olden benchmark baselines\n\n")
	if len(procs) == 0 {
		sb.WriteString("_no parallel records_\n")
		return sb.String()
	}
	sb.WriteString(Table2Markdown(cur, prev, procs, "local"))
	sb.WriteString("\n")
	sb.WriteString(Table3Markdown(cur, prev, procs[len(procs)-1]))
	if len(regs) > 0 {
		sb.WriteString("\n## Regressions\n\n")
		for _, r := range regs {
			fmt.Fprintf(&sb, "- %s\n", r)
		}
	}
	return sb.String()
}
