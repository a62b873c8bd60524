package mem

import (
	"testing"
	"testing/quick"

	"repro/internal/gaddr"
)

func TestAllocReservesNilPage(t *testing.T) {
	h := NewHeap(0, 1<<16)
	g := h.Alloc(8)
	if g.IsNil() {
		t.Fatal("first allocation must not be nil")
	}
	if g.Off() < nilReserve {
		t.Fatalf("first allocation %v lands in the nil reserve", g)
	}
}

func TestAllocAlignmentAndDisjointness(t *testing.T) {
	h := NewHeap(2, 1<<16)
	var prevEnd uint32 = nilReserve
	for i, n := range []uint32{1, 7, 8, 9, 24, 64, 100} {
		g := h.Alloc(n)
		if g.Proc() != 2 {
			t.Fatalf("alloc %d on wrong processor: %v", i, g)
		}
		if g.Off()%gaddr.WordBytes != 0 {
			t.Fatalf("alloc %d misaligned: %v", i, g)
		}
		if g.Off() < prevEnd {
			t.Fatalf("alloc %d overlaps previous: off %#x < %#x", i, g.Off(), prevEnd)
		}
		rounded := (n + gaddr.WordBytes - 1) &^ uint32(gaddr.WordBytes-1)
		if rounded == 0 {
			rounded = gaddr.WordBytes
		}
		prevEnd = g.Off() + rounded
	}
}

func TestLoadStore(t *testing.T) {
	h := NewHeap(1, 1<<16)
	g := h.Alloc(32)
	h.StoreWord(g.Off(), 0xdeadbeef)
	h.StoreWord(g.Off()+8, 42)
	if v := h.LoadWord(g.Off()); v != 0xdeadbeef {
		t.Fatalf("load = %#x", v)
	}
	if v := h.LoadWord(g.Off() + 8); v != 42 {
		t.Fatalf("load = %d", v)
	}
}

func TestMisalignedPanics(t *testing.T) {
	h := NewHeap(0, 1<<16)
	g := h.Alloc(16)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on misaligned access")
		}
	}()
	h.LoadWord(g.Off() + 3)
}

func TestExhaustionPanics(t *testing.T) {
	h := NewHeap(0, 2*gaddr.PageBytes)
	defer func() {
		ex, ok := recover().(*ExhaustedError)
		if !ok {
			t.Fatal("expected an *ExhaustedError panic on heap exhaustion")
		}
		if ex.Proc != 0 || ex.Limit != 2*gaddr.PageBytes || ex.InUse+ex.Requested <= ex.Limit {
			t.Fatalf("exhaustion %+v does not describe the overflowing request", *ex)
		}
	}()
	for i := 0; i < 10_000; i++ {
		h.Alloc(1024)
	}
}

func TestCopyLineOut(t *testing.T) {
	h := NewHeap(0, 1<<16)
	g := h.Alloc(gaddr.LineBytes * 2)
	// Align to the next line boundary manually for the test.
	lineOff := (g.Off() + gaddr.LineBytes - 1) &^ uint32(gaddr.LineBytes-1)
	for w := uint32(0); w < gaddr.WordsPerLine; w++ {
		h.StoreWord(lineOff+w*8, uint64(100+w))
	}
	dst := make([]uint64, gaddr.WordsPerLine)
	h.CopyLineOut(lineOff, dst)
	for w, v := range dst {
		if v != uint64(100+w) {
			t.Fatalf("dst[%d] = %d", w, v)
		}
	}
}

func TestCopyLineOutBeyondAllocationIsZero(t *testing.T) {
	h := NewHeap(0, 1<<20)
	g := h.Alloc(8)
	h.StoreWord(g.Off(), 7)
	// Fetch a line in allocated address space but beyond backing storage.
	base := (g.Off() &^ uint32(gaddr.LineBytes-1)) + 16*gaddr.LineBytes
	dst := make([]uint64, gaddr.WordsPerLine)
	h.CopyLineOut(base, dst)
	for i, v := range dst {
		if v != 0 {
			t.Fatalf("expected zero at %d, got %d", i, v)
		}
	}
}

func TestStoreLoadQuick(t *testing.T) {
	h := NewHeap(3, 1<<20)
	base := h.Alloc(1 << 12)
	f := func(slot uint16, v uint64) bool {
		off := base.Off() + uint32(slot%512)*8
		h.StoreWord(off, v)
		return h.LoadWord(off) == v
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
