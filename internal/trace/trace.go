// Package trace is the simulation's event recorder: a low-overhead,
// allocation-conscious ring buffer of typed events stamped with the
// deterministic simulation clock.
//
// The paper's evaluation (§5, Tables 2–4) explains cycle counts in terms of
// mechanism events — who migrated, which reference missed, which
// invalidations were sent — but aggregate counters cannot localize a
// regression to a site or a page. The recorder captures every migration,
// return stub, future spawn/touch, cache hit/miss/fill, line invalidation
// and acknowledgement round trip as a typed Event stamped with
// (processor, simulated clock, thread, site, page/line).
//
// Because every event is emitted by the virtual-time-active thread between
// scheduler hand-offs, the event sequence is a pure function of the program
// and configuration: the same run always yields the same bytes. That makes
// the trace itself a regression artifact — Digest condenses it into a
// stable hash plus per-kind counts that tests can pin.
//
// Recording is off by default (a nil *Recorder); every emit point in the
// machine, runtime, cache and coherence layers guards on the pointer, so
// disabled runs pay one predictable branch and Table 2 numbers are
// unchanged.
package trace

import (
	"sync"
)

// Kind is the type tag of an event.
type Kind uint8

// Event kinds. The order is part of the digest format — append, never
// reorder.
const (
	// EvMigrate is a forward migration: P is the source processor, Arg
	// the destination, T the departure time and Dur the transit (network
	// + receive + acquire) time. Site is the dereference site that
	// triggered it, or -1 for an explicit MigrateTo.
	EvMigrate Kind = iota
	// EvReturn is a return-stub migration (same stamps as EvMigrate).
	EvReturn
	// EvFutureSpawn is a futurecall; Arg is the child's thread id.
	EvFutureSpawn
	// EvFutureTouch is a touch; Dur is the time spent blocked (zero when
	// the future was already resolved).
	EvFutureTouch
	// EvCacheHit is a cacheable remote reference satisfied locally.
	EvCacheHit
	// EvCacheMiss is a remote reference that paid a protocol round trip;
	// Dur is the full miss latency.
	EvCacheMiss
	// EvLineFetch is a 64-byte line transfer; Arg is the home processor
	// and Dur the request/service/reply round trip.
	EvLineFetch
	// EvLineInval is an invalidation message processed by a sharer
	// (global scheme): P is the sharer, Arg the mask of lines actually
	// cleared (zero means the message was spurious).
	EvLineInval
	// EvInvalAck is the acknowledgement wait paid by a releasing
	// processor after sending invalidations for one page.
	EvInvalAck
	// EvStampCheck is a bilateral timestamp round trip; Dur is the
	// request/service/reply latency.
	EvStampCheck
	// EvFullFlush is a local-knowledge whole-cache invalidation on a
	// migration receive; Arg is the number of lines flushed.
	EvFullFlush
	// EvHomeFlush is the refined local-knowledge return invalidation;
	// Arg is the number of valid lines it discarded.
	EvHomeFlush
	// EvMarkStale is the bilateral acquire (mark all cached pages
	// stale); Arg is the number of pages marked.
	EvMarkStale
	// EvResidency is a completed residency span: the thread occupied
	// processor P from T to T+Dur between two migrations (or spawn and
	// finish).
	EvResidency
	// EvThreadStart is a thread registering with the scheduler.
	EvThreadStart
	// EvThreadEnd is a thread leaving the scheduler.
	EvThreadEnd

	numKinds = int(EvThreadEnd) + 1
)

// NumKinds is the number of event kinds (the length of Digest.Counts).
const NumKinds = numKinds

var kindNames = [numKinds]string{
	"migrate", "return", "spawn", "touch", "hit", "miss", "fetch",
	"inval", "ack", "stamp", "flush", "homeflush", "stale",
	"resident", "start", "end",
}

// String names the kind as it appears in digests and profiles.
func (k Kind) String() string {
	if int(k) < numKinds {
		return kindNames[k]
	}
	return "?"
}

// Event is one simulation event. The struct is fixed-size and free of
// pointers so the ring buffer holds events by value and recording never
// allocates after the buffer reaches capacity.
type Event struct {
	T    int64  // simulated clock at the event's start
	Dur  int64  // duration in cycles; zero for instantaneous events
	Arg  int64  // kind-specific argument (see the Kind docs)
	Page uint32 // global page id, zero when not applicable
	Site int32  // interned site id (SiteName), -1 when not applicable
	Tid  int32  // logical thread id, -1 when no thread is involved
	P    int16  // processor, -1 when no processor is involved
	Line int16  // line index within Page, -1 when not applicable
	Kind Kind
}

// DefaultCapacity bounds the ring buffer when New is given no capacity:
// 2^18 events (12 MiB at 48 bytes an event) keeps full kernels of the
// default-scale benchmarks without drops.
const DefaultCapacity = 1 << 18

// The ring is stored in chunks of chunkEvents events, appended as it fills:
// growing never copies what is already recorded, and a recorder holds
// memory for what it received, not for its bound. 512 events are 24 KiB,
// exactly a small-object size class: what a run with a handful of events
// pays for its first chunk stays in the noise of setting the run up, which
// a 4096-event chunk (192 KiB, a large-object allocation) tripled.
const (
	chunkShift  = 9
	chunkEvents = 1 << chunkShift
)

// Recorder collects events into a bounded ring. A nil *Recorder is the
// disabled state: emit points must guard on it.
//
// The recorder is internally locked: the virtual-time scheduler serializes
// emissions on one goroutine, but the ring of a run still in flight is
// read by /debug/trace from another.
type Recorder struct {
	mu      sync.Mutex
	cap     int
	chunks  [][]Event // slot i lives at chunks[i>>chunkShift][i&(chunkEvents-1)]
	n       int       // events held, at most cap
	next    int       // slot of the oldest event; nonzero only once the ring has wrapped
	dropped int64

	sites   []string
	siteIDs map[string]int32
}

// New returns a recorder bounded at capacity events (DefaultCapacity when
// capacity <= 0). Nothing is allocated up front whatever the bound: the
// ring grows a chunk at a time up to it, then wraps, dropping the oldest
// events.
func New(capacity int) *Recorder {
	if capacity <= 0 {
		capacity = DefaultCapacity
	}
	return &Recorder{cap: capacity, siteIDs: map[string]int32{}}
}

// Emit appends one event. When the ring is full the oldest event is
// overwritten and counted as dropped.
func (r *Recorder) Emit(ev Event) {
	r.mu.Lock()
	i := r.n
	if i < r.cap {
		// Only the first slot of a new chunk allocates.
		if i>>chunkShift == len(r.chunks) {
			r.chunks = append(r.chunks, make([]Event, min(chunkEvents, r.cap-i)))
		}
		r.n++
	} else {
		i = r.next
		r.next++
		if r.next == r.cap {
			r.next = 0
		}
		r.dropped++
	}
	r.chunks[i>>chunkShift][i&(chunkEvents-1)] = ev
	r.mu.Unlock()
}

// runsLocked yields the held events oldest-first and in place, one
// chunk-contiguous run at a time. The caller holds r.mu and must not call
// out of the package while ranging.
func (r *Recorder) runsLocked(yield func([]Event) bool) {
	// Oldest-first is slots [next, n) then [0, next); next is zero until
	// the ring wraps.
	for _, span := range [2][2]int{{r.next, r.n}, {0, r.next}} {
		for lo, hi := span[0], span[1]; lo < hi; {
			c := r.chunks[lo>>chunkShift]
			off := lo & (chunkEvents - 1)
			run := c[off:min(len(c), off+hi-lo)]
			if !yield(run) {
				return
			}
			lo += len(run)
		}
	}
}

// SiteID interns a site name, assigning ids in first-registration order
// (which the deterministic scheduler makes stable run to run).
func (r *Recorder) SiteID(name string) int32 {
	r.mu.Lock()
	defer r.mu.Unlock()
	if id, ok := r.siteIDs[name]; ok {
		return id
	}
	id := int32(len(r.sites))
	r.sites = append(r.sites, name)
	r.siteIDs[name] = id
	return id
}

// SiteName resolves an interned site id; out-of-range ids (including the
// -1 sentinel) resolve to the empty string.
func (r *Recorder) SiteName(id int32) string {
	r.mu.Lock()
	defer r.mu.Unlock()
	if id < 0 || int(id) >= len(r.sites) {
		return ""
	}
	return r.sites[id]
}

// Sites returns the interned site names in id order.
func (r *Recorder) Sites() []string {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]string, len(r.sites))
	copy(out, r.sites)
	return out
}

// Events returns a copy of the recorded events oldest-first. It is the one
// accessor that copies: callers that go on to call out (a profile's emit
// callback, an io.Writer) must not hold the lock of a possibly in-flight
// run's recorder while they do.
func (r *Recorder) Events() []Event {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]Event, 0, r.n)
	for run := range r.runsLocked {
		out = append(out, run...)
	}
	return out
}

// Len returns the number of events currently held.
func (r *Recorder) Len() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.n
}

// Dropped returns the number of events lost to ring wrap-around.
func (r *Recorder) Dropped() int64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.dropped
}
