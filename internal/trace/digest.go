package trace

import (
	"fmt"
	"strings"
)

// Digest condenses a trace into a byte-stable regression artifact: an
// FNV-1a hash over every event's fields (in emission order) plus per-kind
// event counts. Two runs of the same benchmark at the same configuration
// must produce identical digests — any divergence means the simulation
// picked up a real-time or iteration-order dependence.
type Digest struct {
	Events  int64
	Dropped int64
	Hash    uint64
	Counts  [NumKinds]int64
}

// fnv-1a 64-bit parameters.
const (
	fnvOffset = 14695981039346656037
	fnvPrime  = 1099511628211
)

// fnvPrimePow[k] is fnvPrime^k mod 2^64: what k FNV-1a steps over zero
// bytes multiply the hash by, since h ^ 0 == h.
var fnvPrimePow = func() (pow [9]uint64) {
	pow[0] = 1
	for k := 1; k < len(pow); k++ {
		pow[k] = pow[k-1] * fnvPrime
	}
	return pow
}()

// fnvWord folds the eight bytes of v, least significant first, into h. It
// is byte-wise FNV-1a: the bytes up to v's last nonzero one take a step
// each, and the zero bytes above them — most of a small non-negative field
// — are folded in one multiplication.
func fnvWord(h, v uint64) uint64 {
	k := 8
	for ; v != 0; v >>= 8 {
		h = (h ^ v&0xff) * fnvPrime
		k--
	}
	return h * fnvPrimePow[k]
}

// hashEvent folds one event into a running FNV-1a hash.
func hashEvent(h uint64, ev Event) uint64 {
	h = fnvWord(h, uint64(ev.Kind))
	h = fnvWord(h, uint64(ev.T))
	h = fnvWord(h, uint64(ev.Dur))
	h = fnvWord(h, uint64(ev.Arg))
	h = fnvWord(h, uint64(ev.Page))
	h = fnvWord(h, uint64(int64(ev.Site)))
	h = fnvWord(h, uint64(int64(ev.Tid)))
	h = fnvWord(h, uint64(int64(ev.P)))
	h = fnvWord(h, uint64(int64(ev.Line)))
	return h
}

// Digest computes the digest of every event emitted, evicted or held:
// Dropped is always zero.
func (r *Recorder) Digest() Digest {
	d := r.evicted
	for run := range r.held {
		d.fold(run)
	}
	// The format's last word is the count of events the hash does not
	// cover, which is none.
	d.Hash = fnvWord(d.Hash, 0)
	return d
}

// fold hashes evs into d in order and counts them.
func (d *Digest) fold(evs []Event) {
	for _, ev := range evs {
		d.Counts[ev.Kind]++
		d.Hash = hashEvent(d.Hash, ev)
	}
	d.Events += int64(len(evs))
}

// accessKinds marks the event kinds that describe the program's semantic
// heap-access behaviour — migrations, future spawns/touches, cache
// hits/misses/fetches, residency spans and thread lifecycle — as opposed
// to coherence-protocol bookkeeping (inval, ack, stamp, flush, homeflush,
// stale), whose very presence is specific to one scheme: the local scheme
// flushes whole caches at migration receives, the global scheme sends
// invalidations, the bilateral scheme stamps and marks stale. A phase
// whose access behaviour is provably independent of the coherence scheme
// must produce the same access events under all three schemes even though
// the protocol events (and therefore the full Digest) differ.
var accessKinds = [NumKinds]bool{
	EvMigrate: true, EvReturn: true, EvFutureSpawn: true, EvFutureTouch: true,
	EvCacheHit: true, EvCacheMiss: true, EvLineFetch: true,
	EvResidency: true, EvThreadStart: true, EvThreadEnd: true,
}

// hashAccessEvent hashes the scheme-invariant fields of one access
// event: kind, site, page and line. Everything scheduling- or
// timing-dependent is deliberately excluded — the clock (T, Dur) because
// protocol costs legitimately shift it between schemes; the processor
// and thread id, and the argument (a migration's destination), because
// work stealing places the same semantic work differently when protocol
// latencies perturb which processor idles first. What remains is the
// multiset of (what happened, at which site, to which page) — the part a
// certified phase plan actually speaks about.
func hashAccessEvent(ev Event) uint64 {
	h := uint64(fnvOffset)
	h = fnvWord(h, uint64(ev.Kind))
	h = fnvWord(h, uint64(ev.Page))
	h = fnvWord(h, uint64(int64(ev.Site)))
	h = fnvWord(h, uint64(int64(ev.Line)))
	return h
}

// AccessDigest condenses the trace's access projection into an
// order-insensitive digest: each access event hashes on its own
// (timing-free, see hashAccessEvent) and the hashes combine by modular
// addition, so two traces agree exactly when they contain the same
// multiset of access events — regardless of how protocol timing
// interleaved them. This is the runtime half of a certified phase plan
// (internal/analysis/phases): a kernel whose plan certifies every phase
// coherence-scheme-independent must produce byte-identical AccessDigests
// under all three schemes, and internal/bench's scheduler battery checks
// exactly that on the pinned kernels.
func (r *Recorder) AccessDigest() Digest {
	d := Digest{Dropped: r.Dropped()}
	for run := range r.held {
		for _, ev := range run {
			if !accessKinds[ev.Kind] {
				continue
			}
			d.Events++
			d.Counts[ev.Kind]++
			d.Hash += hashAccessEvent(ev)
		}
	}
	d.Hash = fnvWord(d.Hash, uint64(d.Dropped))
	return d
}

// String renders the digest in the pinned golden format:
//
//	events=N dropped=D hash=0123456789abcdef kind=count,kind=count,...
//
// Only kinds with nonzero counts appear, in Kind order.
func (d Digest) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "events=%d dropped=%d hash=%016x", d.Events, d.Dropped, d.Hash)
	sep := " "
	for k := 0; k < NumKinds; k++ {
		if d.Counts[k] == 0 {
			continue
		}
		fmt.Fprintf(&sb, "%s%s=%d", sep, Kind(k), d.Counts[k])
		sep = ","
	}
	return sb.String()
}
