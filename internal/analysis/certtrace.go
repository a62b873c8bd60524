package analysis

import (
	"path"
	"strings"

	"repro/internal/analysis/effects"
	"repro/internal/bench"
	"repro/internal/core"

	// The certificate cross-validation runs registered benchmarks; the
	// kernels register themselves in package init.
	_ "repro/internal/bench/all"
)

// checkCertTrace cross-validates the static cacheability certificate of
// a benchmark package's mini-C kernel against the runtime's own account
// of what it did. A certificate claims the program's semantic access
// behaviour is independent of the coherence scheme; the runtime half of
// that claim is trace.AccessDigest — the order-insensitive projection of
// the event stream onto semantic kinds, excluding protocol traffic. The
// check runs the registered benchmark under all three schemes and flags
// any certified kernel whose access digests differ, and any run that
// fails its own verification.
//
// Packages without a KernelSource, kernels that are not registered
// benchmarks, and kernels whose certificate is (correctly) refused are
// all skipped: a refusal is the analysis doing its job, not a finding.
func checkCertTrace(p *Package) []Finding {
	src, pos, ok := kernelSource(p)
	if !ok {
		return nil
	}
	benchName := path.Base(p.unitPath())
	info, registered := bench.Get(benchName)
	if !registered {
		return nil
	}
	res, err := effects.AnalyzeSource(src, core.DefaultParams())
	if err != nil {
		return nil // mechanism-consistency already reports parse failures
	}
	cert := res.Certificate()
	if !cert.Cacheable {
		return nil
	}
	var fs []Finding
	for _, msg := range validateCertified(benchName, info) {
		fs = append(fs, p.finding("cert-trace", pos, "%s", msg))
	}
	return fs
}

func validateCertified(name string, info bench.Info) []string {
	var msgs []string
	all := observeSchemes(name, info)
	var obs []schemeObs
	for _, o := range all {
		if !o.verified {
			msgs = append(msgs, "certified kernel "+name+" failed verification under "+
				o.scheme)
			continue
		}
		obs = append(obs, o)
	}
	for i := 1; i < len(obs); i++ {
		if obs[i].kernelAccess != obs[0].kernelAccess {
			msgs = append(msgs, "certificate for "+name+
				" claims scheme-independence but kernel access digests differ: "+
				obs[0].scheme+"="+obs[0].kernelAccess.String()+" vs "+
				obs[i].scheme+"="+obs[i].kernelAccess.String())
		}
		if obs[i].buildAccess != obs[0].buildAccess {
			msgs = append(msgs, "certificate for "+name+
				" claims scheme-independence but build access digests differ: "+
				obs[0].scheme+"="+obs[0].buildAccess.String()+" vs "+
				obs[i].scheme+"="+obs[i].buildAccess.String())
		}
	}
	// Normalize duplicate messages away (several schemes can disagree in
	// the same way).
	return dedupe(msgs)
}

func dedupe(msgs []string) []string {
	var out []string
	for _, m := range msgs {
		if len(out) == 0 || !contains(out, m) {
			out = append(out, m)
		}
	}
	return out
}

func contains(s []string, v string) bool {
	for _, x := range s {
		if strings.EqualFold(x, v) {
			return true
		}
	}
	return false
}
