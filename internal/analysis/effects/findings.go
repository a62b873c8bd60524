package effects

import (
	"fmt"
	"sort"
	"strings"
)

// Finding is one effects-analysis finding in the oldenvet finding shape
// (internal/analysis.Finding has the identical JSON layout; this package
// cannot import it without creating a cycle through the certificate
// cross-validation check).
type Finding struct {
	Check   string `json:"check"`
	File    string `json:"file"`
	Line    int    `json:"line"`
	Col     int    `json:"col"`
	Message string `json:"message"`
}

// Findings renders the analysis as findings: one "effects/summary" per
// function, one "effects/diff" per differential site, and one
// "effects/certificate" for the program. The slice is
// sorted by (file, line, col, check, message) — the deterministic
// ordering contract the vet findings follow.
func (r *Result) Findings(file string) []Finding {
	var out []Finding
	for _, s := range r.Summaries {
		out = append(out, Finding{
			Check: "effects/summary", File: file, Line: s.Pos.Line, Col: s.Pos.Col,
			Message: fmt.Sprintf("%s: %s", s.Name, s.EffectsLine()),
		})
	}
	for _, d := range r.Diffs {
		out = append(out, Finding{
			Check: "effects/diff", File: file, Line: d.Pos.Line, Col: d.Pos.Col,
			Message: fmt.Sprintf("%s: loop %s: %s %s->%s (%s)",
				d.Fn, d.Loop, d.Var, d.Old, d.New, d.Reason),
		})
	}
	cert := r.Certificate()
	msg := fmt.Sprintf("cacheable digest=%s", cert.Digest)
	if !cert.Cacheable {
		msg = fmt.Sprintf("not cacheable: %s digest=%s",
			strings.Join(cert.Reasons, ","), cert.Digest)
	}
	out = append(out, Finding{
		Check: "effects/certificate", File: file, Line: 1, Col: 1, Message: msg,
	})
	sort.SliceStable(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.File != b.File {
			return a.File < b.File
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		if a.Col != b.Col {
			return a.Col < b.Col
		}
		if a.Check != b.Check {
			return a.Check < b.Check
		}
		return a.Message < b.Message
	})
	return out
}
