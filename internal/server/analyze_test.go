package server

import (
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

// postAnalyze fires one POST /analyze and decodes the response.
func postAnalyze(t *testing.T, ts *httptest.Server, body string) (int, AnalyzeResponse, []byte) {
	t.Helper()
	resp, err := http.Post(ts.URL+"/analyze", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatalf("POST /analyze: %v", err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("read body: %v", err)
	}
	var ar AnalyzeResponse
	if resp.StatusCode == http.StatusOK {
		if err := json.Unmarshal(raw, &ar); err != nil {
			t.Fatalf("bad response JSON: %v\n%s", err, raw)
		}
	}
	return resp.StatusCode, ar, raw
}

func analyzeServer(t *testing.T) *httptest.Server {
	t.Helper()
	s := New(Config{Workers: 1})
	t.Cleanup(func() { s.Shutdown(context.Background()) })
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return ts
}

const boundedSrc = `struct s { int v; };
int f(int n) {
  int i;
  int t;
  t = 0;
  i = 0;
  while (i < 10) {
    t = t + i;
    i = i + 1;
  }
  return t;
}`

const unboundedSrc = `struct s { int v; };
void spin(struct s *p) {
  while (1) {
    p->v = 0;
  }
}`

const symbolicSrc = `struct s { int v; };
int f(int n) {
  int i;
  int t;
  t = 0;
  for (i = 0; i < n; i = i + 1) {
    t = t + i;
  }
  return t;
}`

// TestAnalyzeAdmitsBounded pins the happy path: a constant-bounded
// program inside its budget is admitted, with summaries and certificate
// attached.
func TestAnalyzeAdmitsBounded(t *testing.T) {
	ts := analyzeServer(t)
	status, ar, raw := postAnalyze(t, ts,
		`{"source":`+jsonString(boundedSrc)+`,"budget":{"max_steps":1000,"max_allocs":10}}`)
	if status != http.StatusOK {
		t.Fatalf("status %d: %s", status, raw)
	}
	if !ar.Admitted || len(ar.Reasons) != 0 {
		t.Errorf("admitted=%v reasons=%v, want admitted", ar.Admitted, ar.Reasons)
	}
	if len(ar.Functions) != 1 || ar.Functions[0].Name != "f" {
		t.Errorf("functions = %+v", ar.Functions)
	}
	if len(ar.Certificate.Digest) != 16 {
		t.Errorf("certificate digest %q", ar.Certificate.Digest)
	}
	if len(ar.Findings) == 0 {
		t.Error("no findings attached")
	}
}

// TestAnalyzeRejectsUnbounded pins the core sandbox property: ⊤-bounded
// programs are rejected before any run, with machine-readable reasons.
func TestAnalyzeRejectsUnbounded(t *testing.T) {
	ts := analyzeServer(t)
	status, ar, raw := postAnalyze(t, ts, `{"source":`+jsonString(unboundedSrc)+`}`)
	if status != http.StatusOK {
		t.Fatalf("status %d: %s", status, raw)
	}
	if ar.Admitted {
		t.Fatal("unbounded program admitted")
	}
	found := false
	for _, r := range ar.Reasons {
		if r == "unbounded-steps:spin" {
			found = true
		}
	}
	if !found {
		t.Errorf("Reasons = %v, want unbounded-steps:spin", ar.Reasons)
	}
}

// TestAnalyzeSymbolicNeedsOptIn: symbolic bounds are rejected under a
// strict budget and admitted when the budget allows them.
func TestAnalyzeSymbolicNeedsOptIn(t *testing.T) {
	ts := analyzeServer(t)
	_, strict, _ := postAnalyze(t, ts,
		`{"source":`+jsonString(symbolicSrc)+`,"budget":{"max_steps":1000}}`)
	if strict.Admitted {
		t.Error("symbolic bound admitted under constant-only budget")
	}
	sawSymbolic := false
	for _, r := range strict.Reasons {
		if strings.HasPrefix(r, "symbolic-steps:f:") {
			sawSymbolic = true
		}
	}
	if !sawSymbolic {
		t.Errorf("Reasons = %v, want symbolic-steps:f:*", strict.Reasons)
	}
	_, loose, _ := postAnalyze(t, ts,
		`{"source":`+jsonString(symbolicSrc)+`,"budget":{"max_steps":1000,"allow_symbolic":true}}`)
	if !loose.Admitted {
		t.Errorf("symbolic bound rejected with allow_symbolic: %v", loose.Reasons)
	}
}

// TestAnalyzeStepBudgetEnforced: a constant bound over the numeric cap is
// refused with the overage spelled out.
func TestAnalyzeStepBudgetEnforced(t *testing.T) {
	ts := analyzeServer(t)
	_, ar, _ := postAnalyze(t, ts,
		`{"source":`+jsonString(boundedSrc)+`,"budget":{"max_steps":3}}`)
	if ar.Admitted {
		t.Error("over-budget program admitted")
	}
	sawBudget := false
	for _, r := range ar.Reasons {
		if strings.HasPrefix(r, "steps-budget:f:") {
			sawBudget = true
		}
	}
	if !sawBudget {
		t.Errorf("Reasons = %v, want steps-budget:f:*", ar.Reasons)
	}
}

// TestAnalyzeBadRequests pins the error surface: wrong method, bad JSON,
// empty source, and a program that does not parse.
func TestAnalyzeBadRequests(t *testing.T) {
	ts := analyzeServer(t)
	resp, err := http.Get(ts.URL + "/analyze")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("GET /analyze = %d, want 405", resp.StatusCode)
	}
	if status, _, _ := postAnalyze(t, ts, `{nope`); status != http.StatusBadRequest {
		t.Errorf("bad JSON = %d, want 400", status)
	}
	if status, _, _ := postAnalyze(t, ts, `{"source":"int f() { return 0; }"}{}`); status != http.StatusBadRequest {
		t.Errorf("data after the body = %d, want 400", status)
	}
	if status, _, _ := postAnalyze(t, ts, `{}`); status != http.StatusBadRequest {
		t.Errorf("empty source = %d, want 400", status)
	}
	if status, _, _ := postAnalyze(t, ts, `{"source":"int f( {"}`); status != http.StatusUnprocessableEntity {
		t.Errorf("unparsable source = %d, want 422", status)
	}
}

func jsonString(s string) string {
	b, _ := json.Marshal(s)
	return string(b)
}
