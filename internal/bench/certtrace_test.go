package bench_test

import (
	"testing"

	"repro/internal/bench"
	"repro/internal/trace"

	_ "repro/internal/bench/all"
)

// accessRun executes one benchmark and returns the kernel-phase access
// digest (the scheme-invariant projection certificates are checked
// against).
func accessRun(t *testing.T, name string, procs int, scheme int) trace.Digest {
	t.Helper()
	info, ok := bench.Get(name)
	if !ok {
		t.Fatalf("benchmark %q not registered", name)
	}
	rec := trace.New(0)
	res := info.Run(bench.Config{Procs: procs, Scheme: schemes[scheme].kind, Trace: rec})
	if !res.Verified() {
		t.Fatalf("%s under %s failed verification", name, schemes[scheme].name)
	}
	return rec.AccessDigest()
}

// TestCertifiedKernelsSchemeInvariant is the runtime half of the
// cacheability certificates: the kernels the effects analysis certifies
// (treeadd, power, mst — migrate-only, no extern calls) must produce
// byte-identical access digests under all three coherence schemes. The
// oldenvet cert-trace check enforces the same property from the static
// side; this test pins it where the benchmarks live.
func TestCertifiedKernelsSchemeInvariant(t *testing.T) {
	for _, name := range []string{"treeadd", "power", "mst"} {
		t.Run(name, func(t *testing.T) {
			base := accessRun(t, name, 4, 0)
			if base.Events == 0 {
				t.Fatalf("%s: empty access digest", name)
			}
			for i := 1; i < len(schemes); i++ {
				got := accessRun(t, name, 4, i)
				if got != base {
					t.Errorf("%s: access digest differs under %s:\n %s\nvs %s under %s",
						name, schemes[i].name, got, base, schemes[0].name)
				}
			}
		})
	}
}

// TestUncertifiedKernelDigestsDiffer keeps the projection honest: a
// kernel that actually caches (bisort, refused as mixed-mechanisms) has
// scheme-dependent access behaviour, so if its digests agreed across
// schemes the projection would be discarding too much to mean anything.
func TestUncertifiedKernelDigestsDiffer(t *testing.T) {
	a := accessRun(t, "bisort", 4, 0)
	b := accessRun(t, "bisort", 4, 1)
	if a == b {
		t.Errorf("bisort access digests agree across schemes; projection too coarse:\n%s", a)
	}
}
