package rt

import (
	"repro/internal/cache"
	"repro/internal/coherence"
	"repro/internal/gaddr"
	"repro/internal/trace"
)

// cacheAccess resolves a remote reference through the software cache,
// running the bilateral stale check and the line fetch as needed. A
// reference counts as one miss if it pays any protocol round trip —
// a line fetch and/or a timestamp check (this is the quantity behind
// Table 3's "% of Remote references that miss").
//
// The resident-line hit — by far the dominant outcome — takes the
// allocation-free fast path: one hash-chain walk (cache.Hit) and the trace
// emit. Everything else falls back to the full probe, which re-derives the
// same state and handles page allocation, staleness and the fetch.
func (t *Thread) cacheAccess(s *Site, a gaddr.GP) cacheRef {
	c := t.rt.Caches[t.loc]
	tr := t.rt.M.Tracer
	start := t.now
	t.chargeHere(t.rt.M.Cost.CacheHit)
	if e, ok := c.Hit(a); ok {
		if tr != nil {
			tr.Emit(trace.Event{
				Kind: trace.EvCacheHit, T: start,
				P: int16(t.loc), Tid: t.tid(), Site: s.traceID,
				Page: uint32(gaddr.PageOf(a)), Line: int16(gaddr.LineOf(a)),
			})
		}
		return cacheRef{e: e, pageOff: a.Off() % gaddr.PageBytes}
	}
	e, pageNew, lineValid := c.Probe(a)
	if pageNew {
		t.rt.M.Stats.PagesCached++
	}
	missed := false
	if t.rt.Coh.Kind() == coherence.Bilateral {
		if _, stale := c.LineState(e, gaddr.LineOf(a)); stale {
			t0 := t.now
			t.now = t.rt.Coh.StaleCheck(e, t.loc, t.now)
			missed = true
			if tr != nil {
				tr.Emit(trace.Event{
					Kind: trace.EvStampCheck, T: t0, Dur: t.now - t0,
					P: int16(t.loc), Tid: t.tid(), Site: s.traceID, Line: -1,
					Page: uint32(gaddr.PageOf(a)),
				})
			}
			lineValid, _ = c.LineState(e, gaddr.LineOf(a))
		}
	}
	if !lineValid {
		missed = true
		t.fetchLine(c, e, a)
	}
	if missed {
		t.rt.M.Stats.Misses++
		t.rt.mMissLat.Observe(t.now - start)
	}
	if tr != nil {
		ev := trace.Event{
			Kind: trace.EvCacheHit, T: start,
			P: int16(t.loc), Tid: t.tid(), Site: s.traceID,
			Page: uint32(gaddr.PageOf(a)), Line: int16(gaddr.LineOf(a)),
		}
		if missed {
			ev.Kind = trace.EvCacheMiss
			ev.Dur = t.now - start
		}
		tr.Emit(ev)
	}
	return cacheRef{e: e, pageOff: a.Off() % gaddr.PageBytes}
}

// fetchLine transfers the 64-byte line containing a from its home into the
// local cache: request latency, service occupying the home, reply latency.
func (t *Thread) fetchLine(c *cache.Cache, e *cache.Entry, a gaddr.GP) {
	cost := t.rt.M.Cost
	home := t.rt.M.Procs[a.Proc()]
	line := gaddr.LineOf(a)
	start := t.now
	t.now += cost.MissRequest
	t.now = home.Occupy(t.now, cost.MissService)
	var buf [gaddr.WordsPerLine]uint64
	lineOff := a.Off() &^ uint32(gaddr.LineBytes-1)
	home.Heap.CopyLineOut(lineOff, buf[:])
	t.now += cost.MissReply
	c.InstallLine(e, line, buf[:])
	t.rt.Coh.RegisterSharer(e.Page, t.loc)
	t.rt.M.Stats.LineFetches++
	if tr := t.rt.M.Tracer; tr != nil {
		tr.Emit(trace.Event{
			Kind: trace.EvLineFetch, T: start, Dur: t.now - start,
			P: int16(t.loc), Tid: t.tid(), Site: -1, Line: int16(line),
			Page: uint32(e.Page), Arg: int64(a.Proc()),
		})
	}
}
