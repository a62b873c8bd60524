package rt

import (
	"slices"
	"testing"

	"repro/internal/gaddr"
)

// Sites register themselves with the runtime on first use. A name that is
// empty or not a dotted "<bench>.<var>" name, and two distinct Site values
// sharing one name, are recorded as site faults instead of silently
// merging or mislabelling per-site statistics. The kernels' sites are held
// to an empty fault list by TestKernelContracts in internal/bench.
func TestSiteRegistrationAndDuplicates(t *testing.T) {
	r := New(Config{Procs: 2})
	sa := &Site{Name: "reg.a", Mech: Cache}
	sb := &Site{Name: "reg.b", Mech: Migrate}
	sbClash := &Site{Name: "reg.b", Mech: Cache}
	empty := &Site{Mech: Cache}
	undotted := &Site{Name: "undotted", Mech: Cache}
	r.Run(0, func(th *Thread) {
		g := th.Alloc(1, 16)
		th.StoreInt(sa, g, 0, 1)
		th.LoadInt(sb, g, 0)
		th.LoadInt(sb, g, 0)
		th.LoadInt(sbClash, g, 0)
		th.LoadInt(empty, g, 0)
		th.LoadInt(undotted, g, 0)
	})

	stats := r.SiteStats()
	if len(stats) != 4 {
		t.Fatalf("SiteStats: %d entries; want 4 (\"\", reg.a, reg.b, undotted)", len(stats))
	}
	if stats[1].Name != "reg.a" || stats[2].Name != "reg.b" {
		t.Fatalf("SiteStats order = %q, %q; want sorted by name", stats[1].Name, stats[2].Name)
	}
	want := []string{
		`site name "reg.b" is taken by a distinct Site`,
		`site name "" is not a dotted <bench>.<var> name`,
		`site name "undotted" is not a dotted <bench>.<var> name`,
	}
	if got := r.SiteFaults(); !slices.Equal(got, want) {
		t.Fatalf("SiteFaults = %q; want %q", got, want)
	}
}

// A nil site panics at the first dereference that names it, before any
// simulated work: access reads the site's registration.
func TestNilSitePanics(t *testing.T) {
	r := New(Config{Procs: 1})
	defer func() {
		if recover() == nil {
			t.Fatal("LoadWord with a nil site must panic")
		}
	}()
	r.Run(0, func(th *Thread) {
		g := th.Alloc(0, 8)
		th.LoadWord(nil, g, 0)
	})
}

// Reusing one Site value across runtimes (the benchmark-suite pattern:
// fresh runtime per run, site rebuilt per run or shared) must not count as
// a duplicate anywhere.
func TestSiteReuseAcrossRuntimes(t *testing.T) {
	s := &Site{Name: "reuse.s", Mech: Cache}
	for i := 0; i < 2; i++ {
		r := New(Config{Procs: 1})
		r.Run(0, func(th *Thread) {
			g := th.Alloc(0, 8)
			th.StoreInt(s, g, 0, int64(i))
		})
		if f := r.SiteFaults(); len(f) != 0 {
			t.Fatalf("run %d: SiteFaults = %q; want none", i, f)
		}
		if st := r.SiteStats(); len(st) != 1 || st[0].Name != "reuse.s" {
			t.Fatalf("run %d: SiteStats = %v", i, st)
		}
	}
}

func TestAllocAtHome(t *testing.T) {
	r := New(Config{Procs: 4})
	s := &Site{Name: "home.s", Mech: Cache}
	r.Run(0, func(th *Thread) {
		g := th.Alloc(3, 16)
		n := th.AllocAtHome(g, 16)
		if n.Proc() != g.Proc() {
			t.Errorf("AllocAtHome placed on %d; want %d", n.Proc(), g.Proc())
		}
		th.StoreInt(s, n, 0, 7)
		if got := th.LoadInt(s, n, 0); got != 7 {
			t.Errorf("load = %d; want 7", got)
		}
	})
}

func TestAllocAtHomeNilPanics(t *testing.T) {
	r := New(Config{Procs: 1})
	defer func() {
		if recover() == nil {
			t.Fatal("AllocAtHome(nil) must panic")
		}
	}()
	r.Run(0, func(th *Thread) { th.AllocAtHome(gaddr.Nil, 8) })
}

func TestFieldPtrAndRawHelpers(t *testing.T) {
	r := New(Config{Procs: 2})
	g := r.RawAlloc(1, 32)
	if g.IsNil() {
		t.Fatal("RawAlloc returned nil")
	}
	elem := FieldPtr(g, 24)
	if elem.Proc() != g.Proc() || elem.Off() != g.Off()+24 {
		t.Fatalf("FieldPtr(g,24) = %v; want interior pointer on same proc", elem)
	}
	r.RawStore(g, 24, 99)
	if v := r.RawLoad(elem, 0); v != 99 {
		t.Fatalf("RawLoad via interior pointer = %d; want 99", v)
	}
	r.RawStorePtr(g, 0, elem)
	if p := r.RawLoadPtr(g, 0); p != elem {
		t.Fatalf("RawLoadPtr = %v; want %v", p, elem)
	}
}
