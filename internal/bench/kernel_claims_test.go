package bench_test

import (
	"fmt"
	"slices"
	"strings"
	"testing"

	"repro/internal/analysis/effects"
	"repro/internal/analysis/phases"
	"repro/internal/bench"
	"repro/internal/core"
	"repro/internal/rt"
	"repro/internal/trace"
)

// This file states what the static analyses claim about each kernel and
// checks those claims against the scheduler battery's own runs: which
// mechanism each dereference site uses (PAPER.md §4.2–4.3), what a
// certified phase plan promises across coherence schemes, and what a
// shared build promises the server's phase cache.

// kernelClaims is the static side of one kernel, read once from its
// mini-C source.
type kernelClaims struct {
	rep *core.Report
	// certified: every phase of the plan is scheme-invariant, so the
	// semantic access behaviour and the result are scheme-independent.
	certified bool
	// sharedBuild: the kernel has a BuildKey, so the phase cache shares
	// its raw build's heap image across schemes.
	sharedBuild bool
}

func staticClaims(t *testing.T, name string) kernelClaims {
	t.Helper()
	info, ok := bench.Get(name)
	if !ok || info.Source == "" {
		t.Fatalf("benchmark %q is not registered with a kernel source", name)
	}
	res, err := effects.AnalyzeSource(info.Source, core.DefaultParams())
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	_, sharedBuild := info.BuildKey(bench.Config{})
	return kernelClaims{
		rep:         res.Report,
		certified:   phases.Compute(res, phases.Options{IncludeBuild: info.Phased != nil}).Certified,
		sharedBuild: sharedBuild,
	}
}

// siteDerefs covers the kernel sites whose tag Report.MechanismForName
// does not resolve: the kernel function and pointer variables each one
// stands for, or why it has none.
var siteDerefs = map[string]struct {
	fn, none string
	vars     []string
}{
	"health.tree":     {fn: "sim", vars: []string{"v"}},
	"health.list":     {fn: "sim", vars: []string{"p"}},
	"perimeter.tree":  {fn: "perimeter", vars: []string{"t"}},
	"perimeter.nbr":   {fn: "gtequal_adj_neighbor", vars: []string{"t"}},
	"bisort.search":   {fn: "BiMerge", vars: []string{"pl", "pr"}},
	"em3d.edge":       {fn: "compute_node", vars: []string{"n"}},
	"bisort.swap":     {none: "swapTree's subtree exchange is not in the merge kernel"},
	"barneshut.build": {none: "the tree insertion is not in the force kernel"},
}

// mechFindings compares each executed site's Mech with the heuristic's
// choice on the kernel. A site neither MechanismForName nor siteDerefs
// maps is a finding.
func mechFindings(rep *core.Report, sites []rt.SiteStats) []string {
	var msgs []string
	for _, s := range sites {
		want, found := rep.MechanismForName(s.Name[strings.IndexByte(s.Name, '.')+1:])
		d, listed := siteDerefs[s.Name]
		switch {
		case found && listed:
			msgs = append(msgs, fmt.Sprintf("site %q resolves by name; drop its siteDerefs entry", s.Name))
		case !found && !listed:
			msgs = append(msgs, fmt.Sprintf("site %q maps onto no kernel dereference: add it to siteDerefs", s.Name))
		case !found && d.none != "":
			continue
		case !found:
			want = core.ChooseCache
			for _, ds := range rep.DerefSites() {
				if ds.Fn == d.fn && slices.Contains(d.vars, ds.Base) {
					found = true
					if ds.Mech == core.ChooseMigrate {
						want = core.ChooseMigrate
					}
				}
			}
			if !found {
				msgs = append(msgs, fmt.Sprintf("site %q: the kernel has no dereference of %v in %s", s.Name, d.vars, d.fn))
				continue
			}
		}
		if s.Mech.String() != want.String() {
			msgs = append(msgs, fmt.Sprintf("site %q is tagged %s but the kernel heuristic chooses %s", s.Name, s.Mech, want))
		}
	}
	return msgs
}

// schemeObs is what one battery run exposes to the cross-scheme claims.
type schemeObs struct {
	scheme       string
	check        uint64
	kernelAccess trace.Digest // trace.AccessDigest of the timed region
	buildHeap    uint64       // heap fingerprint of the build alone (observe)
}

// observe is what run r of name under cfg exposes to the cross-scheme
// claims. A shared build is fingerprinted by running only the build once
// more, under cfg's machine size, scale and scheme on a fresh runtime: the
// heap the phase cache would share. No kernel runs.
func observe(name, scheme string, cfg bench.Config, r *run, sharedBuild bool) schemeObs {
	o := schemeObs{scheme: scheme, check: r.res.Check, kernelAccess: r.access}
	if sharedBuild {
		info, _ := bench.Get(name)
		c := bench.Config{Procs: cfg.Procs, Scheme: cfg.Scheme, Scale: cfg.Scale}
		b := c.NewRuntime()
		info.Phased.Build(c, b)
		o.buildHeap = b.HeapFingerprint()
	}
	return o
}

// crossSchemeFindings checks one kernel's claims over its runs at one
// machine size, one run per scheme. A certified kernel promises equal
// access digests and checks, not equal final heaps: at P≥4 power's
// allocation placement follows scheme-dependent timing, so the global
// pointers it stores differ (DESIGN.md §11). A shared build promises the
// exact heap image after the build at every P. bisort, which genuinely
// caches, must show differing digests at P>1, or the access projection
// is discarding the signal certified plans speak about. An access digest
// whose ring dropped events covers only a suffix of its run: where the
// claims compare digests, the drop is the finding and nothing is compared.
func crossSchemeFindings(name string, procs int, c kernelClaims, obs []schemeObs) []string {
	var msgs []string
	if c.certified || name == "bisort" && procs > 1 {
		for _, o := range obs {
			if o.kernelAccess.Dropped > 0 {
				msgs = append(msgs, fmt.Sprintf("%s P=%d under %s: the access digest dropped %d events, so it covers only a suffix of the run",
					name, procs, o.scheme, o.kernelAccess.Dropped))
			}
		}
		if len(msgs) > 0 {
			return msgs
		}
	}
	a := obs[0]
	for _, b := range obs[1:] {
		differ := func(claim, what string, x, y any) {
			if x != y {
				msgs = append(msgs, fmt.Sprintf("%s P=%d is %s but its %s differ: %s=%v vs %s=%v",
					name, procs, claim, what, a.scheme, x, b.scheme, y))
			}
		}
		if c.certified {
			differ("certified", "kernel access digests", a.kernelAccess, b.kernelAccess)
			differ("certified", "checks", a.check, b.check)
		}
		if c.sharedBuild {
			differ("a shared build", "build heap fingerprints",
				fmt.Sprintf("%016x", a.buildHeap), fmt.Sprintf("%016x", b.buildHeap))
		}
		if name == "bisort" && procs > 1 && a.kernelAccess == b.kernelAccess {
			msgs = append(msgs, fmt.Sprintf("bisort P=%d caches but its access digests agree under %s and %s: the projection is too coarse",
				procs, a.scheme, b.scheme))
		}
	}
	return msgs
}

// The checks must fail on a lie: a shared build whose heap images differ,
// an access digest that covers only a suffix of its run, and a migrating
// site tagged to cache.
func TestKernelClaimCheckersCatchLies(t *testing.T) {
	obs := []schemeObs{
		{scheme: "local", buildHeap: 1},
		{scheme: "global", buildHeap: 1},
		{scheme: "bilateral", buildHeap: 2},
	}
	msgs := crossSchemeFindings("treeadd", 4, kernelClaims{sharedBuild: true}, obs)
	if len(msgs) != 1 || !strings.Contains(msgs[0], "treeadd") ||
		!strings.Contains(msgs[0], "local=") || !strings.Contains(msgs[0], "bilateral=") {
		t.Errorf("fabricated build-heap divergence: got %q", msgs)
	}
	// Equal digests whose ring dropped events prove nothing, and unequal
	// ones are not a divergence either: the finding is the drop.
	obs = []schemeObs{
		{scheme: "local", kernelAccess: trace.Digest{Events: 9, Dropped: 512, Hash: 1}},
		{scheme: "global", kernelAccess: trace.Digest{Events: 9, Dropped: 512, Hash: 2}},
		{scheme: "bilateral", kernelAccess: trace.Digest{Events: 9, Hash: 3}},
	}
	msgs = crossSchemeFindings("treeadd", 4, kernelClaims{certified: true}, obs)
	if len(msgs) != 2 || !strings.Contains(msgs[0], "under local") || !strings.Contains(msgs[1], "under global") ||
		!strings.Contains(msgs[0], "dropped 512 events") {
		t.Errorf("access digests over a suffix of the run: got %q", msgs)
	}
	// Claims that compare no digest do not care how much of the run one
	// covers (barneshut's ring wraps in the battery).
	if msgs := crossSchemeFindings("barneshut", 4, kernelClaims{}, obs); len(msgs) != 0 {
		t.Errorf("no digest compared, yet: %q", msgs)
	}
	claims := staticClaims(t, "health")
	msgs = mechFindings(claims.rep, []rt.SiteStats{
		{Name: "health.tree", Mech: rt.Cache},
		{Name: "health.ghost", Mech: rt.Cache},
	})
	if len(msgs) != 2 || !strings.Contains(msgs[0], `"health.tree"`) || !strings.Contains(msgs[1], `"health.ghost"`) {
		t.Errorf("mis-tagged and unmapped sites: got %q", msgs)
	}
}

// The ten pinned kernels, by what their phase plan must prove: every
// kernel-timed benchmark exposes a reusable scheme-invariant build
// prefix (even when extern calls refuse the compute chain), and the
// bounded migrate-only kernels certify their whole chain.
func TestRegisteredKernelPhasePlans(t *testing.T) {
	type want struct {
		refused     bool
		sharedBuild bool
		certified   bool
	}
	cases := map[string]want{
		"treeadd": {sharedBuild: true, certified: true},
		"mst":     {sharedBuild: true, certified: true},
		"bisort":  {sharedBuild: true},
		"em3d":    {sharedBuild: true},
		// The extern calls (conquer, incircle, adj) poison the step
		// bounds, so the compute chains are refused — but the harness
		// build phase survives and stays reusable.
		"tsp":       {refused: true, sharedBuild: true},
		"voronoi":   {refused: true, sharedBuild: true},
		"perimeter": {refused: true, sharedBuild: true},
		// Whole-program benchmarks have no harness build phase; power is
		// migrate-only and bounded, so its whole chain certifies.
		"power":     {certified: true},
		"health":    {},
		"barneshut": {},
	}
	for name, w := range cases {
		t.Run(name, func(t *testing.T) {
			info, ok := bench.Get(name)
			if !ok {
				t.Fatalf("benchmark %q not registered", name)
			}
			if info.Source == "" {
				t.Fatalf("benchmark %q has no kernel source wired", name)
			}
			plan, err := phases.ComputeSource(info.Source, phases.Options{IncludeBuild: info.Phased != nil})
			if err != nil {
				t.Fatalf("ComputeSource: %v", err)
			}
			if plan.Refused != w.refused {
				t.Fatalf("refused=%t want %t (reasons %v)\n%s", plan.Refused, w.refused, plan.Reasons, plan)
			}
			if w.refused && len(plan.Reasons) == 0 {
				t.Fatalf("refusal must carry machine-readable reasons")
			}
			sb := len(plan.Phases) > 0 && plan.Phases[0].Kind == phases.KindBuild && plan.InvariantPrefix > 0
			if sb != w.sharedBuild {
				t.Fatalf("invariant build prefix=%t want %t\n%s", sb, w.sharedBuild, plan)
			}
			if _, shared := info.BuildKey(bench.Config{}); shared != sb {
				t.Fatalf("BuildKey shares the build=%t but the plan's invariant build prefix=%t", shared, sb)
			}
			if plan.Certified != w.certified {
				t.Fatalf("certified=%t want %t\n%s", plan.Certified, w.certified, plan)
			}
		})
	}
}

// TestCertifiedKernelsSchemeInvariant checks a certified plan's promise
// at the pinned scale, which the battery (scale 1/64) does not reach:
// every kernel whose plan certifies (treeadd, power, mst) keeps its claims
// across the three coherence schemes at P=4. It reads the runs
// TestPinsReproduce compares with the pins.
func TestCertifiedKernelsSchemeInvariant(t *testing.T) {
	for _, name := range batteryKernels {
		claims := staticClaims(t, name)
		if !claims.certified {
			continue
		}
		t.Run(name, func(t *testing.T) {
			var obs []schemeObs
			for _, s := range schemes {
				obs = append(obs, observe(name, s.String(), pinConfig(s), shared(t, name, pinConfig(s)), claims.sharedBuild))
			}
			if obs[0].kernelAccess.Events == 0 {
				t.Fatalf("%s: empty access digest", name)
			}
			for _, msg := range crossSchemeFindings(name, pinProcs, claims, obs) {
				t.Error(msg)
			}
		})
	}
}

// TestUncertifiedKernelDigestsDiffer keeps the projection honest at the
// pinned scale: bisort genuinely caches, so its access digests must differ
// across schemes.
func TestUncertifiedKernelDigestsDiffer(t *testing.T) {
	a := shared(t, "bisort", pinConfig(schemes[0])).access
	if a == shared(t, "bisort", pinConfig(schemes[1])).access {
		t.Errorf("bisort access digests agree across schemes; projection too coarse:\n%s", a)
	}
}
