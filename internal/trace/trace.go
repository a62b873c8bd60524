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
	Site int32  // interned site id (an index into Sites), -1 when not applicable
	Tid  int32  // logical thread id, -1 when no thread is involved
	P    int16  // processor, -1 when no processor is involved
	Line int16  // line index within Page, -1 when not applicable
	Kind Kind
}

// DefaultCapacity bounds the ring when New is given no capacity: 2^18
// events (12 MiB at 48 bytes an event), which is 512 chunks. The bound
// limits only what the ring holds for the readers that want events in
// order (Profile, the Chrome export, AccessDigest): Digest folds every
// event it evicts, so it covers the whole run whatever the bound.
const DefaultCapacity = 1 << 18

// ChunkEvents is the ring's unit of growth and eviction. The ring is a
// FIFO of chunks of ChunkEvents events, appended as it fills and, once the
// bound is reached, evicted oldest-first and reused whole: growing never
// copies what is recorded, and a recorder holds memory for what it
// received, not for its bound. 512 events are 24 KiB, exactly a
// small-object size class: a 4096-event chunk (192 KiB, a large-object
// allocation) tripled the cost of setting up a run with a handful of
// events.
const ChunkEvents = 512

// Recorder collects events into a bounded ring of whole chunks. A nil
// *Recorder is the disabled state: emit points must guard on it.
//
// A recorder belongs to its run like the rest of the run's state (DESIGN.md
// §13): it takes no lock. The virtual-time scheduler serializes emissions
// on one control flow, and a reader on another goroutine — /debug/trace —
// is handed the recorder only after the run has returned.
type Recorder struct {
	chunkLen  int       // events a chunk holds: ChunkEvents, or the bound when that is smaller
	maxChunks int       // chunks held at most
	chunks    [][]Event // the held events oldest-first; every chunk is full but the last
	last      []Event   // chunks' last element at its full length: where Emit stores
	i         int       // events in last
	evicted   Digest    // every evicted event folded in emission order; Events counts them

	sites   []string
	siteIDs map[string]int32
}

// New returns a recorder bounded at capacity events (DefaultCapacity when
// capacity <= 0), rounded down to whole chunks; a bound below one chunk is
// one chunk of that many events. Nothing is allocated up front whatever
// the bound: the ring grows a chunk at a time up to it, then wraps by
// evicting its oldest chunk.
func New(capacity int) *Recorder {
	if capacity <= 0 {
		capacity = DefaultCapacity
	}
	n := min(capacity, ChunkEvents)
	return &Recorder{chunkLen: n, maxChunks: capacity / n, evicted: Digest{Hash: fnvOffset}, siteIDs: map[string]int32{}}
}

// Emit appends one event: a store into the last chunk, which nextChunk
// replaces when it is full.
func (r *Recorder) Emit(ev Event) {
	if r.i == len(r.last) {
		r.nextChunk()
	}
	r.last[r.i] = ev
	r.i++
}

// nextChunk appends an empty chunk to the ring: a new one while the bound
// allows, else the oldest, whose events are folded into the evicted digest
// before it is moved to the back and reused.
func (r *Recorder) nextChunk() {
	if len(r.chunks) < r.maxChunks {
		r.last = make([]Event, r.chunkLen)
		r.chunks = append(r.chunks, r.last)
	} else {
		r.last = r.chunks[0]
		r.evicted.fold(r.last)
		copy(r.chunks, r.chunks[1:])
		r.chunks[len(r.chunks)-1] = r.last
	}
	r.i = 0
}

// held yields the held events oldest-first and in place, a chunk at a
// time.
func (r *Recorder) held(yield func([]Event) bool) {
	for k, c := range r.chunks {
		if k == len(r.chunks)-1 {
			c = c[:r.i]
		}
		if !yield(c) {
			return
		}
	}
}

// SiteID interns a site name, assigning ids in first-registration order
// (which the deterministic scheduler makes stable run to run).
func (r *Recorder) SiteID(name string) int32 {
	if id, ok := r.siteIDs[name]; ok {
		return id
	}
	id := int32(len(r.sites))
	r.sites = append(r.sites, name)
	r.siteIDs[name] = id
	return id
}

// Len returns the number of events currently held: chunkLen in every
// chunk but the last, which holds i.
func (r *Recorder) Len() int {
	return len(r.chunks)*r.chunkLen - len(r.last) + r.i
}

// Dropped returns the number of events evicted from the ring, whole chunks
// of them: what Profile, the Chrome export and AccessDigest do not see.
func (r *Recorder) Dropped() int64 {
	return r.evicted.Events
}
