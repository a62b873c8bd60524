package effects

import (
	"fmt"
	"strings"

	"repro/internal/core"
)

// Certificate is a program-level cacheability certificate: a static proof
// obligation that the program's semantic memory-access behaviour — the
// trace.AccessDigest projection of its execution — is independent of the
// coherence scheme, plus a stable digest of the summaries it rests on.
//
// The rule is deliberately conservative. A program is certified when it
// calls nothing extern (unknown effects void everything) and either
//
//   - every dereference site migrates: no software cache is ever
//     consulted, so no scheme-specific protocol behaviour can leak into
//     the semantic event stream; or
//   - every site caches, no futurecall runs, and every function is pure:
//     a sequential read-only execution makes the same accesses in the
//     same order under any write-coherence scheme.
//
// Everything else carries a machine-readable refusal reason.
type Certificate struct {
	Cacheable   bool     `json:"cacheable"`
	MigrateOnly bool     `json:"migrate_only"`
	CacheOnly   bool     `json:"cache_only"`
	Parallel    bool     `json:"parallel"`
	Reasons     []string `json:"reasons,omitempty"`
	// Digest is the FNV-1a hash, in %016x, of the canonical summary line
	// of every function plus the site-mechanism shape — byte-stable across
	// runs, changed by any effect the certificate depends on.
	Digest string `json:"digest"`
}

// Certificate derives the program's cacheability certificate from the
// computed summaries and the heuristic's site choices.
func (r *Result) Certificate() Certificate {
	c := Certificate{MigrateOnly: true, CacheOnly: true}
	var reasons []string

	for _, s := range r.Summaries {
		if s.Futures {
			c.Parallel = true
		}
		for _, x := range s.Extern {
			reasons = appendUnique(reasons, "extern-call:"+x)
		}
	}
	for _, site := range r.Report.DerefSites() {
		if site.Mech == core.ChooseCache {
			c.MigrateOnly = false
		} else {
			c.CacheOnly = false
		}
	}

	switch {
	case c.MigrateOnly:
		// No cache traffic at all; certified unless extern.
	case c.CacheOnly:
		if c.Parallel {
			reasons = appendUnique(reasons, "parallel-caching")
		}
		for _, s := range r.Summaries {
			for _, w := range s.Writes {
				reasons = appendUnique(reasons, "cached-write:"+w.String())
			}
		}
	default:
		reasons = appendUnique(reasons, "mixed-mechanisms")
	}

	c.Reasons = reasons
	c.Cacheable = len(reasons) == 0
	c.Digest = r.certDigest(c)
	return c
}

// certDigest hashes the canonical text of everything the certificate
// depends on.
func (r *Result) certDigest(c Certificate) string {
	var sb strings.Builder
	for _, s := range r.Summaries {
		fmt.Fprintf(&sb, "%s(%s): %s\n",
			s.Name, strings.Join(s.Params, ","), s.EffectsLine())
	}
	fmt.Fprintf(&sb, "sites: migrate_only=%v cache_only=%v parallel=%v\n",
		c.MigrateOnly, c.CacheOnly, c.Parallel)
	return fmt.Sprintf("%016x", FNV(FNVOffset, sb.String()))
}

// FNVOffset is the FNV-1a 64-bit offset basis: the h a digest starts from.
const FNVOffset uint64 = 14695981039346656037

// FNV folds s into the running FNV-1a 64-bit hash h. The certificate
// digest and the phase chain (internal/analysis/phases) are both built
// from it.
func FNV(h uint64, s string) uint64 {
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 1099511628211
	}
	return h
}

func appendUnique(s []string, v string) []string {
	for _, x := range s {
		if x == v {
			return s
		}
	}
	return append(s, v)
}
