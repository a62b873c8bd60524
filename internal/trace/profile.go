package trace

import (
	"fmt"
	"math/bits"
	"sort"
	"strings"

	"repro/internal/gaddr"
)

// HistBuckets is the number of power-of-two latency buckets a Histogram
// keeps: bucket i counts values in [2^i, 2^(i+1)), with bucket 0 also
// holding zeros.
const HistBuckets = 24

// Histogram is a log2-bucketed latency histogram.
type Histogram struct {
	Buckets [HistBuckets]int64
	Count   int64
	Sum     int64
	Max     int64
}

// Add records one value.
func (h *Histogram) Add(v int64) {
	if v < 0 {
		v = 0
	}
	b := bits.Len64(uint64(v))
	if b > 0 {
		b--
	}
	if b >= HistBuckets {
		b = HistBuckets - 1
	}
	h.Buckets[b]++
	h.Count++
	h.Sum += v
	if v > h.Max {
		h.Max = v
	}
}

// Mean returns the average recorded value.
func (h Histogram) Mean() float64 {
	if h.Count == 0 {
		return 0
	}
	return float64(h.Sum) / float64(h.Count)
}

// Quantile returns an upper bound on the q-quantile (0 < q <= 1): the
// exclusive top of the bucket where the quantile falls.
func (h Histogram) Quantile(q float64) int64 {
	if h.Count == 0 {
		return 0
	}
	target := int64(q * float64(h.Count))
	if target < 1 {
		target = 1
	}
	var seen int64
	for i := 0; i < HistBuckets; i++ {
		seen += h.Buckets[i]
		if seen >= target {
			return 1 << uint(i+1)
		}
	}
	return h.Max
}

// SiteProfile aggregates the trace's view of one dereference site: how its
// cacheable references behaved and where its migrations went.
type SiteProfile struct {
	Site        string
	Hits        int64
	Misses      int64
	MissLatency Histogram
	Migrations  int64
	FanOut      map[int]int64
}

// PageProfile aggregates the trace's view of one cache page.
type PageProfile struct {
	Page        gaddr.PageID
	Hits        int64
	Misses      int64
	Fetches     int64
	InvalMsgs   int64 // invalidation messages delivered for this page
	InvalLines  int64 // lines those messages actually cleared
	StampChecks int64
}

// Profile is the aggregate view of a trace.
type Profile struct {
	Sites []SiteProfile // sorted by misses then migrations, descending
	Pages []PageProfile // sorted by traffic (fetches+invals+stamps), descending

	Migrations  int64
	Returns     int64
	Spawns      int64
	Touches     int64
	TouchWait   Histogram
	MissLatency Histogram

	// Dropped counts events lost to ring wrap-around before aggregation:
	// when non-zero, every figure above is a lower bound on the run.
	Dropped int64
}

// Profile aggregates the recorded events into per-site and per-page
// profiles — the observability layer Table 3's machine-wide statistics
// lack.
func (r *Recorder) Profile() *Profile {
	p := &Profile{Dropped: r.Dropped()}
	siteAgg := map[int32]*SiteProfile{}
	pageAgg := map[uint32]*PageProfile{}
	siteOf := func(id int32) *SiteProfile {
		sp := siteAgg[id]
		if sp == nil {
			name := ""
			if id >= 0 && int(id) < len(r.sites) {
				name = r.sites[id]
			}
			sp = &SiteProfile{Site: name, FanOut: map[int]int64{}}
			siteAgg[id] = sp
		}
		return sp
	}
	pageOf := func(pg uint32) *PageProfile {
		pp := pageAgg[pg]
		if pp == nil {
			pp = &PageProfile{Page: gaddr.PageID(pg)}
			pageAgg[pg] = pp
		}
		return pp
	}
	for run := range r.held {
		for _, ev := range run {
			switch ev.Kind {
			case EvMigrate:
				p.Migrations++
				sp := siteOf(ev.Site)
				sp.Migrations++
				sp.FanOut[int(ev.Arg)]++
			case EvReturn:
				p.Returns++
			case EvFutureSpawn:
				p.Spawns++
			case EvFutureTouch:
				p.Touches++
				p.TouchWait.Add(ev.Dur)
			case EvCacheHit:
				siteOf(ev.Site).Hits++
				pageOf(ev.Page).Hits++
			case EvCacheMiss:
				sp := siteOf(ev.Site)
				sp.Misses++
				sp.MissLatency.Add(ev.Dur)
				p.MissLatency.Add(ev.Dur)
				pageOf(ev.Page).Misses++
			case EvLineFetch:
				pageOf(ev.Page).Fetches++
			case EvLineInval:
				pp := pageOf(ev.Page)
				pp.InvalMsgs++
				pp.InvalLines += int64(bits.OnesCount64(uint64(ev.Arg)))
			case EvStampCheck:
				pageOf(ev.Page).StampChecks++
			}
		}
	}
	for _, sp := range siteAgg {
		p.Sites = append(p.Sites, *sp)
	}
	sort.Slice(p.Sites, func(i, j int) bool {
		a, b := p.Sites[i], p.Sites[j]
		if a.Misses != b.Misses {
			return a.Misses > b.Misses
		}
		if a.Migrations != b.Migrations {
			return a.Migrations > b.Migrations
		}
		return a.Site < b.Site
	})
	for _, pp := range pageAgg {
		p.Pages = append(p.Pages, *pp)
	}
	traffic := func(pp PageProfile) int64 {
		return pp.Fetches + pp.InvalMsgs + pp.StampChecks
	}
	sort.Slice(p.Pages, func(i, j int) bool {
		a, b := p.Pages[i], p.Pages[j]
		if traffic(a) != traffic(b) {
			return traffic(a) > traffic(b)
		}
		return a.Page < b.Page
	})
	return p
}

// Format renders the profile as text, listing at most topN sites and
// pages (topN <= 0 means everything).
func (p *Profile) Format(topN int) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "migrations %d, returns %d, spawns %d, touches %d (mean wait %.0f cyc)\n",
		p.Migrations, p.Returns, p.Spawns, p.Touches, p.TouchWait.Mean())
	if p.Dropped > 0 {
		fmt.Fprintf(&sb, "WARNING: ring dropped %d events; all figures are lower bounds\n", p.Dropped)
	}
	if p.MissLatency.Count > 0 {
		fmt.Fprintf(&sb, "miss latency: n=%d mean=%.0f p50<%d p95<%d max=%d cyc\n",
			p.MissLatency.Count, p.MissLatency.Mean(),
			p.MissLatency.Quantile(0.50), p.MissLatency.Quantile(0.95), p.MissLatency.Max)
	}
	sb.WriteString("\nper-site profile:\n")
	fmt.Fprintf(&sb, "%-28s %10s %10s %9s %9s %10s  %s\n",
		"site", "hits", "misses", "mean-lat", "max-lat", "migrations", "fan-out")
	n := 0
	for _, s := range p.Sites {
		if topN > 0 && n >= topN {
			fmt.Fprintf(&sb, "... (%d more sites)\n", len(p.Sites)-n)
			break
		}
		n++
		name := s.Site
		if name == "" {
			name = "(no site)"
		}
		fmt.Fprintf(&sb, "%-28s %10d %10d %9.0f %9d %10d  %s\n",
			name, s.Hits, s.Misses, s.MissLatency.Mean(), s.MissLatency.Max,
			s.Migrations, fanOutString(s.FanOut))
	}
	sb.WriteString("\nper-page profile (by traffic):\n")
	fmt.Fprintf(&sb, "%-16s %5s %10s %10s %8s %10s %10s %8s\n",
		"page", "home", "hits", "misses", "fetches", "inval-msgs", "inval-lines", "stamps")
	n = 0
	for _, pg := range p.Pages {
		if topN > 0 && n >= topN {
			fmt.Fprintf(&sb, "... (%d more pages)\n", len(p.Pages)-n)
			break
		}
		n++
		fmt.Fprintf(&sb, "%-16s %5d %10d %10d %8d %10d %10d %8d\n",
			pg.Page, pg.Page.Proc(), pg.Hits, pg.Misses, pg.Fetches,
			pg.InvalMsgs, pg.InvalLines, pg.StampChecks)
	}
	return sb.String()
}

// fanOutString renders a migration destination histogram compactly, in
// destination order.
func fanOutString(m map[int]int64) string {
	if len(m) == 0 {
		return "-"
	}
	dsts := make([]int, 0, len(m))
	for d := range m {
		dsts = append(dsts, d)
	}
	sort.Ints(dsts)
	parts := make([]string, 0, len(dsts))
	for _, d := range dsts {
		parts = append(parts, fmt.Sprintf("p%d:%d", d, m[d]))
	}
	return strings.Join(parts, " ")
}
