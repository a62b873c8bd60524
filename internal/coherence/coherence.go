// Package coherence implements the three cache-coherence schemes of the
// paper's Appendix A on top of the software cache:
//
//   - LocalKnowledge — the scheme used in the main text: each processor
//     invalidates its entire cache on receiving a migration; on receiving a
//     *return*, it invalidates only lines homed on processors the returning
//     thread wrote. No coherence messages at all.
//   - GlobalKnowledge — an adaptation of eager release consistency: the
//     compiler tracks writes at line granularity (a dirty-bit vector per
//     page); the home tracks sharers at page granularity; each outgoing
//     migration (a release) sends line-grained invalidations to the sharers
//     and collects acknowledgements.
//   - Bilateral — no sharer tracking; the home keeps a timestamp per page,
//     bumped at each release that wrote the page. A migration receive marks
//     all cached pages stale; the first access to a stale page asks the
//     home which lines changed since the cached timestamp.
//
// All three provide release consistency with respect to Olden's "virtual
// locks" (one per migration), which — given that futures guarantee
// non-interference — yields the same semantics as sequential consistency.
package coherence

import (
	"fmt"
	"math/bits"
	"sort"

	"repro/internal/cache"
	"repro/internal/gaddr"
	"repro/internal/machine"
	"repro/internal/metrics"
	"repro/internal/trace"
)

// Kind selects one of the three schemes.
type Kind int

const (
	// LocalKnowledge is the paper's default scheme (fastest overall).
	LocalKnowledge Kind = iota
	// GlobalKnowledge is eager release consistency with sharer tracking.
	GlobalKnowledge
	// Bilateral combines local and global knowledge via timestamps.
	Bilateral
)

// String names the scheme as in Table 3.
func (k Kind) String() string {
	switch k {
	case LocalKnowledge:
		return "local"
	case GlobalKnowledge:
		return "global"
	case Bilateral:
		return "bilateral"
	}
	return fmt.Sprintf("Kind(%d)", int(k))
}

// TracksWrites reports whether the scheme pays per-write tracking overhead
// (Appendix A: 7 instructions for non-shared pages, 23 for shared).
func (k Kind) TracksWrites() bool { return k != LocalKnowledge }

// Kinds lists every scheme in definition order — the enumeration the CLIs
// and the serving layer share so flag parsing can never drift from the
// simulator.
func Kinds() []Kind { return []Kind{LocalKnowledge, GlobalKnowledge, Bilateral} }

// Parse maps a scheme name (as printed by Kind.String) back to its Kind.
func Parse(s string) (Kind, error) {
	for _, k := range Kinds() {
		if s == k.String() {
			return k, nil
		}
	}
	return 0, fmt.Errorf("coherence: unknown scheme %q (want local, global or bilateral)", s)
}

// pageDir is the home-side state for one page.
type pageDir struct {
	sharers    uint64                     // processors caching the page (global)
	stamp      uint32                     // page timestamp (bilateral)
	lineStamp  [gaddr.LinesPerPage]uint32 // stamp at each line's last release-write (bilateral)
	everCached bool                       // page has been cached by someone ⇒ "shared"
}

// directory is one processor's home-side page table. Like everything a run
// owns it has no lock: the releasing or fetching thread that reaches into
// another processor's directory is a coroutine of the same dispatcher.
type directory struct {
	pages map[gaddr.PageID]*pageDir
}

func (d *directory) get(p gaddr.PageID) *pageDir {
	pd := d.pages[p]
	if pd == nil {
		pd = &pageDir{}
		d.pages[p] = pd
	}
	return pd
}

// DirtySet is the writer-side write-tracking state a thread accumulates
// between releases: for each page written, the mask of dirtied lines.
type DirtySet map[gaddr.PageID]uint32

// Add records a write to the line containing g.
func (ds DirtySet) Add(g gaddr.GP) {
	ds[gaddr.PageOf(g)] |= 1 << uint(gaddr.LineOf(g))
}

// SortedPages returns the dirtied pages in ascending order. Release
// processing must iterate in this order, not Go's randomized map order:
// the order in which per-page invalidations go out determines when each
// sharer is occupied and when acknowledgement waits accrue, so a random
// order would make processor clocks — and the event trace — differ from
// run to run.
func (ds DirtySet) SortedPages() []gaddr.PageID {
	pages := make([]gaddr.PageID, 0, len(ds))
	for p := range ds {
		pages = append(pages, p)
	}
	sort.Slice(pages, func(i, j int) bool { return pages[i] < pages[j] })
	return pages
}

// Engine runs one coherence scheme for a whole machine.
type Engine struct {
	kind   Kind
	m      *machine.Machine
	caches []*cache.Cache
	dirs   []*directory

	// meters are the protocol counts, bound into the machine's registry
	// (when it carries one) labelled with the scheme, so runs under
	// different schemes dump distinguishable series.
	meters meters
}

// meters counts protocol actions: plain run-owned integers like
// machine.Stats, read by the run's registry at snapshot time.
type meters struct {
	linesInval int64
	ackWaits   int64
	msgHome    int64
	msgStale   int64
}

// New wires an engine to the machine and the per-processor caches
// (caches[i] belongs to processor i). The machine's metrics registry, when
// attached, receives the engine's per-scheme protocol counters.
func New(kind Kind, m *machine.Machine, caches []*cache.Cache) *Engine {
	if len(caches) != m.P() {
		panic("coherence: one cache per processor required")
	}
	e := &Engine{kind: kind, m: m, caches: caches}
	for i := 0; i < m.P(); i++ {
		e.dirs = append(e.dirs, &directory{pages: map[gaddr.PageID]*pageDir{}})
	}
	scheme := metrics.L("scheme", kind.String())
	msg := func(typ string, v *int64) {
		machine.BindCounter(m.Metrics, "olden_protocol_messages_total", v, scheme, metrics.L("type", typ))
	}
	machine.BindCounter(m.Metrics, "olden_lines_invalidated_total", &e.meters.linesInval, scheme)
	machine.BindCounter(m.Metrics, "olden_ack_round_trips_total", &e.meters.ackWaits, scheme)
	// Four message types are one-for-one with counts kept elsewhere: an
	// invalidation, stamp check or full flush is the Stats count, and each
	// ack is one ack round trip.
	msg("inval", &m.Stats.Invalidations)
	msg("ack", &e.meters.ackWaits)
	msg("stamp_check", &m.Stats.StampChecks)
	msg("full_flush", &m.Stats.FullFlushes)
	msg("home_flush", &e.meters.msgHome)
	msg("mark_stale", &e.meters.msgStale)
	return e
}

// Kind returns the scheme in use.
func (e *Engine) Kind() Kind { return e.kind }

// RegisterSharer records, at the page's home, that processor sharer now
// caches the page. Called on every line fetch.
func (e *Engine) RegisterSharer(p gaddr.PageID, sharer int) {
	d := e.dirs[p.Proc()]
	pd := d.get(p)
	pd.everCached = true
	if e.kind == GlobalKnowledge {
		pd.sharers |= 1 << uint(sharer)
	}
}

// WriteTrackCost returns the per-write instrumentation cost for a write to
// the page containing g: zero for local knowledge, else 7 cycles for a
// non-shared page and 23 for a shared one.
func (e *Engine) WriteTrackCost(g gaddr.GP) int64 {
	if !e.kind.TracksWrites() {
		return 0
	}
	p := gaddr.PageOf(g)
	if pd := e.dirs[p.Proc()].pages[p]; pd != nil && pd.everCached {
		return e.m.Cost.WriteTrackShared
	}
	return e.m.Cost.WriteTrackNonShared
}

// OnRelease runs the release half of the protocol when a thread leaves a
// processor (forward migration or return). It consumes the thread's dirty
// set and returns the thread's new clock.
func (e *Engine) OnRelease(src int, now int64, dirty DirtySet) int64 {
	tr := e.m.Tracer
	switch e.kind {
	case GlobalKnowledge:
		for _, p := range dirty.SortedPages() {
			mask := dirty[p]
			d := e.dirs[p.Proc()]
			pd := d.pages[p]
			var sharers uint64
			if pd != nil {
				// Sharing is tracked per page, so sharers stay
				// registered even after an invalidation: they may
				// still hold valid copies of *other* lines. (This
				// is why the paper notes the scheme "could cause
				// some spurious invalidation messages".)
				sharers = pd.sharers
			}
			sent := false
			for s := 0; s < e.m.P(); s++ {
				if s == src || sharers&(1<<uint(s)) == 0 {
					continue
				}
				cleared := e.caches[s].InvalidateLines(p, mask)
				// Processing the invalidation occupies the sharer.
				e.m.Procs[s].Occupy(now, e.m.Cost.InvalidateMsg)
				e.m.Stats.Invalidations++
				e.meters.linesInval += int64(bits.OnesCount32(cleared))
				sent = true
				if tr != nil {
					tr.Emit(trace.Event{
						Kind: trace.EvLineInval, T: now,
						P: int16(s), Tid: -1, Site: -1, Line: -1,
						Page: uint32(p), Arg: int64(cleared),
					})
				}
			}
			if sent {
				// The release completes only after acknowledgements
				// are collected.
				if tr != nil {
					tr.Emit(trace.Event{
						Kind: trace.EvInvalAck, T: now, Dur: e.m.Cost.InvalidateAck,
						P: int16(src), Tid: -1, Site: -1, Line: -1,
						Page: uint32(p),
					})
				}
				now += e.m.Cost.InvalidateAck
				e.meters.ackWaits++
			}
		}
	case Bilateral:
		for _, p := range dirty.SortedPages() {
			mask := dirty[p]
			d := e.dirs[p.Proc()]
			pd := d.get(p)
			pd.stamp++
			for l := 0; l < gaddr.LinesPerPage; l++ {
				if mask&(1<<uint(l)) != 0 {
					pd.lineStamp[l] = pd.stamp
				}
			}
		}
	}
	return now
}

// OnAcquire runs the acquire half when a thread arrives at processor dst.
// isReturn selects the refined local-knowledge rule; writtenProcs is the
// set (bitmask) of processors whose memories the returning thread wrote.
// It returns the thread's new clock.
func (e *Engine) OnAcquire(dst int, now int64, isReturn bool, writtenProcs uint64) int64 {
	tr := e.m.Tracer
	switch e.kind {
	case LocalKnowledge:
		if isReturn {
			if writtenProcs != 0 {
				lines := e.caches[dst].InvalidateHomes(writtenProcs)
				e.meters.msgHome++
				e.meters.linesInval += int64(lines)
				if tr != nil {
					tr.Emit(trace.Event{
						Kind: trace.EvHomeFlush, T: now,
						P: int16(dst), Tid: -1, Site: -1, Line: -1,
						Arg: int64(lines),
					})
				}
				now = e.m.Procs[dst].Occupy(now, e.m.Cost.FlushAll)
			}
		} else {
			lines := e.caches[dst].InvalidateAll()
			e.m.Stats.FullFlushes++
			e.meters.linesInval += int64(lines)
			if tr != nil {
				tr.Emit(trace.Event{
					Kind: trace.EvFullFlush, T: now,
					P: int16(dst), Tid: -1, Site: -1, Line: -1,
					Arg: int64(lines),
				})
			}
			now = e.m.Procs[dst].Occupy(now, e.m.Cost.FlushAll)
		}
	case GlobalKnowledge:
		// Invalidations were pushed eagerly at the release.
	case Bilateral:
		pages := e.caches[dst].MarkAllStale()
		e.meters.msgStale++
		if tr != nil {
			tr.Emit(trace.Event{
				Kind: trace.EvMarkStale, T: now,
				P: int16(dst), Tid: -1, Site: -1, Line: -1,
				Arg: int64(pages),
			})
		}
		now = e.m.Procs[dst].Occupy(now, e.m.Cost.FlushAll)
	}
	return now
}

// StaleCheck performs the bilateral scheme's timestamp round trip for a
// stale entry cached at processor requester: it asks the home which lines
// changed since the entry's stamp, refreshes the entry, and returns the
// thread's new clock. The home service occupies the home processor.
func (e *Engine) StaleCheck(entry *cache.Entry, requester int, now int64) int64 {
	if e.kind != Bilateral {
		panic("coherence: StaleCheck outside the bilateral scheme")
	}
	p := entry.Page
	home := e.m.Procs[p.Proc()]
	now += e.m.Cost.StampRequest
	now = home.Occupy(now, e.m.Cost.StampService)
	d := e.dirs[p.Proc()]
	pd := d.get(p)
	var changed uint32
	for l := 0; l < gaddr.LinesPerPage; l++ {
		if pd.lineStamp[l] > entry.Stamp {
			changed |= 1 << uint(l)
		}
	}
	newStamp := pd.stamp
	lines := e.caches[requester].Refresh(entry, changed, newStamp)
	e.m.Stats.StampChecks++
	e.meters.linesInval += int64(lines)
	return now + e.m.Cost.StampReply
}
