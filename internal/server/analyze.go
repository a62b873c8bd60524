package server

// This file serves POST /analyze: static admission control for mini-C
// programs. The effects analysis (internal/analysis/effects) bounds what
// a program could do — steps and allocations per invocation, with ⊤ when
// no bound exists — and the endpoint checks those bounds against a
// per-request sandbox budget *before* any simulation runs. An unbounded
// program is rejected up front with machine-readable reasons instead of
// being discovered by a deadline mid-run; the response also carries the
// full effect summaries and the cacheability certificate so callers can
// key memoization decisions off the certificate digest.

import (
	"fmt"
	"net/http"
	"strconv"

	"repro/internal/analysis/effects"
	"repro/internal/core"
	"repro/internal/metrics"
)

// Budget caps what an admitted program may cost per invocation of any of
// its functions. Zero fields mean "no numeric cap"; AllowSymbolic admits
// bounds the analysis could not reduce to a constant (symbolic or
// heap-proportional) — without it only constant bounds within the caps
// pass. ⊤ bounds are never admissible.
type Budget struct {
	MaxSteps      int64 `json:"max_steps,omitempty"`
	MaxAllocs     int64 `json:"max_allocs,omitempty"`
	AllowSymbolic bool  `json:"allow_symbolic,omitempty"`
}

// AnalyzeRequest is the POST /analyze body.
type AnalyzeRequest struct {
	// Source is the mini-C program to analyze.
	Source string `json:"source"`
	// Budget, when present, turns the response's admission verdict on;
	// without it the verdict only rejects ⊤ bounds.
	Budget *Budget `json:"budget,omitempty"`
}

// FunctionReport is one function's summary in the response.
type FunctionReport struct {
	Name    string `json:"name"`
	Effects string `json:"effects"`
	Steps   string `json:"steps"`
	Allocs  string `json:"allocs"`
}

// AnalyzeResponse is the POST /analyze reply.
type AnalyzeResponse struct {
	Admitted    bool                `json:"admitted"`
	Reasons     []string            `json:"reasons,omitempty"`
	Certificate effects.Certificate `json:"certificate"`
	Functions   []FunctionReport    `json:"functions"`
	Findings    []effects.Finding   `json:"findings"`
}

// admitAgainst checks every function's bounds against the budget and
// returns the machine-readable refusal reasons, empty when admitted.
func admitAgainst(res *effects.Result, budget *Budget) []string {
	var reasons []string
	checkOne := func(fn string, kind string, b effects.Bound, max int64, allowSym bool) {
		switch {
		case b.IsTop():
			reasons = append(reasons, fmt.Sprintf("unbounded-%s:%s", kind, fn))
		case b.Class == effects.BConst:
			if max > 0 && b.N > max {
				reasons = append(reasons, fmt.Sprintf("%s-budget:%s:%d>%d", kind, fn, b.N, max))
			}
		default: // symbolic or heap-proportional
			if !allowSym {
				reasons = append(reasons, fmt.Sprintf("symbolic-%s:%s:%s", kind, fn, b))
			}
		}
	}
	for _, s := range res.Summaries {
		maxSteps, maxAllocs := int64(0), int64(0)
		allowSym := true
		if budget != nil {
			maxSteps, maxAllocs = budget.MaxSteps, budget.MaxAllocs
			allowSym = budget.AllowSymbolic
		}
		checkOne(s.Name, "steps", s.Steps, maxSteps, allowSym)
		checkOne(s.Name, "allocs", s.Allocs, maxAllocs, allowSym)
	}
	return reasons
}

// handleAnalyze serves POST /analyze: parse, analyze, check the budget,
// answer. Analysis is pure computation over a few kilobytes of source,
// so it runs inline on the request goroutine — no queue, no worker.
func (s *Server) handleAnalyze(w http.ResponseWriter, r *http.Request) {
	var req AnalyzeRequest
	if err := decodeBody(r.Body, &req); err != nil {
		WriteError(w, http.StatusBadRequest, err.Error())
		return
	}
	if req.Source == "" {
		WriteError(w, http.StatusBadRequest, "source is required")
		return
	}
	res, err := effects.AnalyzeSource(req.Source, core.DefaultParams())
	if err != nil {
		WriteError(w, http.StatusUnprocessableEntity, "program does not parse: "+err.Error())
		return
	}
	reasons := admitAgainst(res, req.Budget)
	resp := AnalyzeResponse{
		Admitted:    len(reasons) == 0,
		Reasons:     reasons,
		Certificate: res.Certificate(),
		Findings:    res.Findings("<request>"),
	}
	for _, sum := range res.Summaries {
		resp.Functions = append(resp.Functions, FunctionReport{
			Name:    sum.Name,
			Effects: sum.EffectsLine(),
			Steps:   sum.Steps.String(),
			Allocs:  sum.Allocs.String(),
		})
	}
	s.cfg.Metrics.Counter("oldend_analyze_total",
		metrics.L("admitted", strconv.FormatBool(resp.Admitted))).Inc()
	WriteJSON(w, http.StatusOK, resp)
}
