package trace

import (
	"fmt"
	"testing"
	"testing/quick"
)

// sliceRing is the reference model of the recorder's ring: a plain slice
// that drops its head when full. It shares nothing with the chunked layout.
type sliceRing struct {
	cap     int
	evs     []Event
	dropped int64
}

func (m *sliceRing) emit(ev Event) {
	if len(m.evs) == m.cap {
		m.evs = m.evs[1:]
		m.dropped++
	}
	m.evs = append(m.evs, ev)
}

// digest and accessDigest recompute the two digests from the model's slice
// with the reference byte loop, so the table below checks the in-place
// visit order and the zero-run hash end to end.
func (m *sliceRing) digest() Digest {
	d := Digest{Events: int64(len(m.evs)), Dropped: m.dropped, Hash: fnvOffset}
	for _, ev := range m.evs {
		d.Counts[ev.Kind]++
		for _, v := range [...]uint64{
			uint64(ev.Kind), uint64(ev.T), uint64(ev.Dur), uint64(ev.Arg), uint64(ev.Page),
			uint64(int64(ev.Site)), uint64(int64(ev.Tid)), uint64(int64(ev.P)), uint64(int64(ev.Line)),
		} {
			d.Hash = fnvWordRef(d.Hash, v)
		}
	}
	d.Hash = fnvWordRef(d.Hash, uint64(d.Dropped))
	return d
}

func (m *sliceRing) accessDigest() Digest {
	d := Digest{Dropped: m.dropped}
	for _, ev := range m.evs {
		if !IsAccessKind(ev.Kind) {
			continue
		}
		d.Events++
		d.Counts[ev.Kind]++
		h := uint64(fnvOffset)
		for _, v := range [...]uint64{
			uint64(ev.Kind), uint64(ev.Page), uint64(int64(ev.Site)), uint64(int64(ev.Line)),
		} {
			h = fnvWordRef(h, v)
		}
		d.Hash += h
	}
	d.Hash = fnvWordRef(d.Hash, uint64(d.Dropped))
	return d
}

// testEvent varies every field with i, mixes access and protocol kinds and
// keeps the -1 sentinels in play.
func testEvent(i int) Event {
	return Event{
		Kind: Kind(i % NumKinds), T: int64(i) * 7, Dur: int64(i % 50), Arg: int64(i%3) - 1,
		Page: uint32(i) << 6, Site: int32(i%9) - 1, Tid: int32(i % 5), P: int16(i%4) - 1, Line: int16(i%65) - 1,
	}
}

func checkAgainstModel(t *testing.T, r *Recorder, m *sliceRing) {
	t.Helper()
	if r.Len() != len(m.evs) {
		t.Fatalf("Len = %d, model holds %d", r.Len(), len(m.evs))
	}
	if r.Dropped() != m.dropped {
		t.Fatalf("Dropped = %d, model dropped %d", r.Dropped(), m.dropped)
	}
	got := r.Events()
	if got == nil || len(got) != len(m.evs) {
		t.Fatalf("Events() has %d events (nil=%v), model %d", len(got), got == nil, len(m.evs))
	}
	for i := range got {
		if got[i] != m.evs[i] {
			t.Fatalf("Events()[%d] = %+v, model %+v", i, got[i], m.evs[i])
		}
	}
	if d, want := r.Digest(), m.digest(); d != want {
		t.Fatalf("Digest:\n got %s\nwant %s", d, want)
	}
	if d, want := r.AccessDigest(), m.accessDigest(); d != want {
		t.Fatalf("AccessDigest:\n got %s\nwant %s", d, want)
	}
}

// TestRingBoundaries walks capacities around the chunk size and event
// counts around each capacity.
func TestRingBoundaries(t *testing.T) {
	for _, capacity := range []int{1, 4, chunkEvents - 1, chunkEvents, chunkEvents + 1, 2*chunkEvents + 3, 4095, 4096, 4097} {
		for _, n := range []int{0, capacity - 1, capacity, capacity + 1, 3*capacity + 7} {
			t.Run(fmt.Sprintf("cap%d/n%d", capacity, n), func(t *testing.T) {
				r := New(capacity)
				m := &sliceRing{cap: capacity}
				for i := 0; i < n; i++ {
					r.Emit(testEvent(i))
					m.emit(testEvent(i))
				}
				checkAgainstModel(t, r, m)
				if want := (min(n, capacity) + chunkEvents - 1) / chunkEvents; len(r.chunks) != want {
					t.Fatalf("%d events into capacity %d hold %d chunks, want %d", n, capacity, len(r.chunks), want)
				}
			})
		}
	}
}

// TestRingAllocations pins what the chunked ring is for: nothing up front
// whatever the bound, one chunk per chunkEvents events received, no
// allocation once wrapped, and digests that read the ring where it lies.
func TestRingAllocations(t *testing.T) {
	huge := New(100_000_000) // oldensim -tracecap 100000000
	if len(huge.chunks) != 0 {
		t.Fatalf("New preallocated %d chunks", len(huge.chunks))
	}
	huge.Emit(testEvent(0))
	if len(huge.chunks) != 1 || len(huge.chunks[0]) != chunkEvents {
		t.Fatalf("one event holds %d chunks", len(huge.chunks))
	}

	const n = 2*chunkEvents + 1
	def := New(0)
	for i := 0; i < n; i++ {
		def.Emit(testEvent(i))
	}
	if got, want := len(def.chunks), (n+chunkEvents-1)/chunkEvents; got != want {
		t.Fatalf("default-capacity recorder holds %d chunks after %d events, want %d", got, n, want)
	}

	full := New(chunkEvents + 5)
	for i := 0; i < 2*chunkEvents; i++ {
		full.Emit(testEvent(i))
	}
	e := testEvent(1)
	if avg := testing.AllocsPerRun(200, func() { full.Emit(e) }); avg != 0 {
		t.Errorf("Emit into a wrapped ring allocates %.1f times", avg)
	}
	if avg := testing.AllocsPerRun(20, func() { sink += full.Digest().Hash }); avg != 0 {
		t.Errorf("Digest of a full ring allocates %.1f times", avg)
	}
	if avg := testing.AllocsPerRun(20, func() { sink += full.AccessDigest().Hash }); avg != 0 {
		t.Errorf("AccessDigest of a full ring allocates %.1f times", avg)
	}
}

// sink keeps the measured digests live.
var sink uint64

// fnvWordRef is the byte-wise FNV-1a fold fnvWord must equal: eight steps,
// one per byte of v, whatever v holds.
func fnvWordRef(h, v uint64) uint64 {
	for i := 0; i < 8; i++ {
		h ^= v & 0xff
		h *= fnvPrime
		v >>= 8
	}
	return h
}

// minusOne is the Site/Tid/P/Line sentinel before HashEvent widens it.
var minusOne int32 = -1

// fnvWordSeeds are the values whose zero-byte structure differs: none set,
// one low byte, a carry into the second byte, only the top byte, all set
// (also as the widened -1 sentinel), and zero bytes between nonzero ones.
var fnvWordSeeds = []uint64{
	0, 1, 0xff, 0x100, 1 << 56, ^uint64(0), uint64(int64(minusOne)), 0x0100_0001,
	0x00ff_0000_0000_0000, 0x0100_0000_0000_0001,
}

func TestFnvWordMatchesByteLoop(t *testing.T) {
	for _, h := range []uint64{0, fnvOffset, ^uint64(0)} {
		for _, v := range fnvWordSeeds {
			if got, want := fnvWord(h, v), fnvWordRef(h, v); got != want {
				t.Errorf("fnvWord(%#x, %#x) = %#x, byte loop gives %#x", h, v, got, want)
			}
		}
	}
	if err := quick.CheckEqual(fnvWord, fnvWordRef, &quick.Config{MaxCount: 20000}); err != nil {
		t.Error(err)
	}
	// testing/quick draws full-width values; the short ones are the point.
	short := func(h, v uint64, bytes uint8) bool {
		v >>= 8 * (bytes % 9)
		return fnvWord(h, v) == fnvWordRef(h, v)
	}
	if err := quick.Check(short, &quick.Config{MaxCount: 20000}); err != nil {
		t.Error(err)
	}
}

func FuzzFnvWord(f *testing.F) {
	for _, v := range fnvWordSeeds {
		f.Add(uint64(fnvOffset), v)
	}
	f.Fuzz(func(t *testing.T, h, v uint64) {
		if got, want := fnvWord(h, v), fnvWordRef(h, v); got != want {
			t.Fatalf("fnvWord(%#x, %#x) = %#x, byte loop gives %#x", h, v, got, want)
		}
	})
}
