package cache

import (
	"testing"
	"testing/quick"

	"repro/internal/gaddr"
)

func addr(proc int, off uint32) gaddr.GP { return gaddr.Pack(proc, off) }

func TestProbeAllocatesOnce(t *testing.T) {
	c := New()
	g := addr(1, 3*gaddr.PageBytes+2*gaddr.LineBytes)
	e1, pageNew, lineValid := c.Probe(g)
	if !pageNew || lineValid {
		t.Fatalf("first probe: pageNew=%v lineValid=%v", pageNew, lineValid)
	}
	e2, pageNew2, _ := c.Probe(g.Add(8))
	if pageNew2 || e1 != e2 {
		t.Fatal("second probe must reuse the entry")
	}
	if c.Entries() != 1 || c.PagesAllocated() != 1 {
		t.Fatalf("entries=%d allocs=%d", c.Entries(), c.PagesAllocated())
	}
}

func TestInstallAndReadWrite(t *testing.T) {
	c := New()
	g := addr(2, 5*gaddr.PageBytes+7*gaddr.LineBytes+16)
	e, _, _ := c.Probe(g)
	line := gaddr.LineOf(g)
	words := make([]uint64, gaddr.WordsPerLine)
	for i := range words {
		words[i] = uint64(1000 + i)
	}
	c.InstallLine(e, line, words)
	if _, _, valid := c.Probe(g); !valid {
		t.Fatal("line must be valid after install")
	}
	pageOff := g.Off() % gaddr.PageBytes
	if v := c.ReadWord(e, pageOff); v != 1002 {
		t.Fatalf("read = %d; want 1002 (word 2 of line)", v)
	}
	c.WriteWord(e, pageOff, 77)
	if v := c.ReadWord(e, pageOff); v != 77 {
		t.Fatalf("after write read = %d", v)
	}
	// Other lines of the page stay invalid.
	other := gaddr.PageOf(g).Base().Add(uint32((line + 1) % gaddr.LinesPerPage * gaddr.LineBytes))
	if _, _, valid := c.Probe(other); valid {
		t.Fatal("adjacent line must not become valid")
	}
}

func TestInvalidateAll(t *testing.T) {
	c := New()
	words := make([]uint64, gaddr.WordsPerLine)
	for p := 0; p < 4; p++ {
		g := addr(p, gaddr.PageBytes)
		e, _, _ := c.Probe(g)
		c.InstallLine(e, 0, words)
	}
	c.InvalidateAll()
	for p := 0; p < 4; p++ {
		if _, pageNew, valid := c.Probe(addr(p, gaddr.PageBytes)); valid || pageNew {
			t.Fatalf("proc %d: valid=%v pageNew=%v; entries persist but lines invalidate", p, valid, pageNew)
		}
	}
}

func TestInvalidateHomes(t *testing.T) {
	c := New()
	words := make([]uint64, gaddr.WordsPerLine)
	for p := 0; p < 4; p++ {
		e, _, _ := c.Probe(addr(p, gaddr.PageBytes))
		c.InstallLine(e, 0, words)
	}
	c.InvalidateHomes(1<<1 | 1<<3)
	for p := 0; p < 4; p++ {
		_, _, valid := c.Probe(addr(p, gaddr.PageBytes))
		wantValid := p == 0 || p == 2
		if valid != wantValid {
			t.Fatalf("proc %d: valid=%v want %v", p, valid, wantValid)
		}
	}
}

func TestInvalidateLines(t *testing.T) {
	c := New()
	g := addr(1, gaddr.PageBytes)
	e, _, _ := c.Probe(g)
	words := make([]uint64, gaddr.WordsPerLine)
	c.InstallLine(e, 0, words)
	c.InstallLine(e, 5, words)
	c.InstallLine(e, 9, words)
	if cleared := c.InvalidateLines(gaddr.PageOf(g), 1<<5|1<<31); cleared != 1<<5 {
		t.Fatalf("cleared = %#x; only the valid line 5 was discarded", cleared)
	}
	if e.Valid != 1<<0|1<<9 {
		t.Fatalf("valid mask = %#x", e.Valid)
	}
	if cleared := c.InvalidateLines(gaddr.PageID(addr(7, gaddr.PageBytes)), 1); cleared != 0 {
		t.Fatal("absent page must clear nothing")
	}
}

func TestStaleAndRefresh(t *testing.T) {
	c := New()
	g := addr(0, gaddr.PageBytes)
	e, _, _ := c.Probe(g)
	words := make([]uint64, gaddr.WordsPerLine)
	c.InstallLine(e, 0, words)
	c.InstallLine(e, 1, words)
	c.MarkAllStale()
	if !e.Stale {
		t.Fatal("entry must be stale")
	}
	c.Refresh(e, 1<<0, 42)
	if e.Stale || e.Stamp != 42 {
		t.Fatalf("after refresh: stale=%v stamp=%d", e.Stale, e.Stamp)
	}
	if e.Valid != 1<<1 {
		t.Fatalf("valid = %#x; changed line must be dropped", e.Valid)
	}
}

func TestMarkAllStaleSkipsEmptyEntries(t *testing.T) {
	c := New()
	e, _, _ := c.Probe(addr(0, gaddr.PageBytes))
	c.MarkAllStale()
	if e.Stale {
		t.Fatal("entry with no valid lines need not be stale")
	}
}

func TestClear(t *testing.T) {
	c := New()
	c.Probe(addr(0, gaddr.PageBytes))
	c.Probe(addr(1, gaddr.PageBytes))
	c.Clear()
	if c.Entries() != 0 {
		t.Fatal("clear must drop entries")
	}
	if c.PagesAllocated() != 0 {
		t.Fatal("clear must zero the allocation count")
	}
}

func TestChainLengthApproxOne(t *testing.T) {
	// The paper: "in our experience, the average chain length is
	// approximately one." With a few hundred pages spread across
	// processors the 1K-bucket table should stay near one.
	c := New()
	for p := 0; p < 8; p++ {
		for pg := uint32(1); pg <= 40; pg++ {
			c.Probe(addr(p, pg*gaddr.PageBytes))
		}
	}
	if avg := c.AvgChainLength(); avg > 1.6 {
		t.Fatalf("avg chain length %.2f; want ≈1", avg)
	}
}

func TestReadYourWritesQuick(t *testing.T) {
	c := New()
	f := func(proc uint8, page uint8, word uint8, v uint64) bool {
		g := addr(int(proc%8), (1+uint32(page%16))*gaddr.PageBytes+uint32(word)%gaddr.WordsPerPage*8)
		e, _, _ := c.Probe(g)
		pageOff := g.Off() % gaddr.PageBytes
		c.WriteWord(e, pageOff, v)
		return c.ReadWord(e, pageOff) == v
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
