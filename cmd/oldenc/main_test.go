package main

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"repro/internal/analysis"
)

// runOldenc drives the command through its testable seam.
func runOldenc(t *testing.T, stdin string, args ...string) (stdout, stderr string, code int) {
	t.Helper()
	var out, errb bytes.Buffer
	code = run(args, strings.NewReader(stdin), &out, &errb)
	return out.String(), errb.String(), code
}

// TestLintExitCodes pins the -lint exit contract: 0 for clean programs,
// 0 when only warnings fire, 1 as soon as any error-severity diagnostic
// does.
func TestLintExitCodes(t *testing.T) {
	const clean = `
struct s { int v; struct s *n __affinity(90); };
void f(struct s *p) {
  while (p) {
    p = p->n;
  }
}
`
	const warnOnly = `
struct s { int v; struct s *n __affinity(90); };
void f(struct s *p) { return; }
`
	const hasError = `
struct s { int v; struct s *n __affinity(120); };
void f(struct s *p) {
  while (p) {
    p = p->n;
  }
}
`
	cases := []struct {
		name string
		src  string
		code int
	}{
		{"clean", clean, 0},
		{"warnings-only", warnOnly, 0},
		{"errors", hasError, 1},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			stdout, stderr, code := runOldenc(t, tc.src, "-lint", "-")
			if code != tc.code {
				t.Errorf("exit = %d, want %d\nstdout: %s\nstderr: %s",
					code, tc.code, stdout, stderr)
			}
		})
	}
}

// TestLintJSONSeverity checks that -lint -json carries the severity of
// each diagnostic.
func TestLintJSONSeverity(t *testing.T) {
	const src = `
struct s { int v; struct s *n __affinity(120); };
void f(struct s *p) {
  while (p) {
    p = p->n;
  }
}
`
	stdout, stderr, code := runOldenc(t, src, "-lint", "-json", "-")
	if code != 1 {
		t.Fatalf("exit = %d, want 1; stderr: %s", code, stderr)
	}
	var findings []analysis.Finding
	if err := json.Unmarshal([]byte(stdout), &findings); err != nil {
		t.Fatalf("bad JSON: %v\n%s", err, stdout)
	}
	sawError := false
	for _, f := range findings {
		if f.Severity != "warning" && f.Severity != "error" {
			t.Errorf("finding %v has severity %q", f, f.Severity)
		}
		if f.Severity == "error" {
			sawError = true
		}
	}
	if !sawError {
		t.Errorf("no error-severity finding in %s", stdout)
	}
}

// TestModeExclusivity pins the flag contract: -json is a form of -lint.
func TestModeExclusivity(t *testing.T) {
	if _, _, code := runOldenc(t, "", "-json", "-bench", "treeadd"); code != 1 {
		t.Errorf("bare -json: exit %d, want 1", code)
	}
}
