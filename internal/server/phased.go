package server

import (
	"fmt"

	"repro/internal/bench"
	"repro/internal/bench/record"
	"repro/internal/coherence"
	"repro/internal/obs"
	"repro/internal/rt"
	"repro/internal/trace"
)

// This file is the server's phase-granular memoization: the second LRU
// layer under the all-or-nothing result cache. The result cache can only
// reuse a run whose *entire* configuration matches; the phase cache
// reuses the build-phase boundary — heap images plus host-side build
// state — across every configuration with the same bench BuildKey
// (benchmark, machine size, problem scale), whatever the coherence scheme
// or mechanism mode. The build performs no simulated accesses, so its
// image is scheme-invariant by construction, and RunPhased re-checks the
// heap fingerprint on every restore.

// defaultExecutePhased runs the benchmark for real: a fresh machine +
// runtime per job (nothing shared with concurrent runs), the trace
// recorder and metrics registry attached so the record carries the
// digest that makes memoization verifiable. Phase-cacheable requests
// probe the phase cache first and restore the memoized build boundary on
// a hit; the returned disposition feeds the X-Oldend-Phase-Cache header.
// An unverified run — wrong answer versus the sequential reference — is
// an executor error, never a cacheable result.
//
// When sp is sampled, the run records into its own simulation recorder,
// attached to sp when the run returns, so the span tree bottoms out in
// real cache-miss events, and each bench phase ("build", "kernel", ...)
// becomes a child span. That recorder is trace.New(0), the ring
// RunPhasedRecorded allocates on its own, so TraceDigest is
// byte-identical sampled or not.
func (s *Server) defaultExecutePhased(req RunRequest, sp *obs.Span) (record.RunRecord, string, error) {
	info, ok := bench.Get(req.Benchmark)
	if !ok {
		return record.RunRecord{}, "none", fmt.Errorf("unknown benchmark %q", req.Benchmark)
	}
	scheme, err := coherence.Parse(req.Scheme)
	if err != nil {
		return record.RunRecord{}, "none", err
	}
	mode, err := rt.ParseMode(req.Mode)
	if err != nil {
		return record.RunRecord{}, "none", err
	}
	cfg := bench.Config{
		Baseline: req.Baseline,
		Procs:    req.Procs,
		Scale:    req.Scale,
		Scheme:   scheme,
		Mode:     mode,
	}
	var simRec *trace.Recorder
	if sp.Sampled() {
		sp.SetAttr("benchmark", req.Benchmark)
		sp.SetAttr("scheme", req.Scheme)
		if req.Mode != "" {
			sp.SetAttr("mode", req.Mode)
		}
		simRec = trace.New(0)
		cfg.Trace = simRec
		cfg.OnPhase = func(name string) func() {
			ph := sp.StartChild("phase:" + name)
			return ph.End
		}
	}

	key, shared := info.BuildKey(cfg)
	var bs *bench.BuildState
	if shared {
		bs, _ = lruGet(s.phases, key)
	}
	res, rec, nbs, reused, err := bench.RunPhasedRecorded(info, cfg, bs)
	if simRec != nil {
		sp.AttachSim(simRec)
		if d := simRec.Dropped(); d > 0 {
			s.traceDropped.Add(d)
			sp.SetAttrInt("sim_dropped", d)
		}
	}
	if err != nil {
		return rec, "none", err
	}
	if !res.Verified() {
		return rec, "none", fmt.Errorf("%s run failed verification: %#x != %#x", req.Benchmark, res.Check, res.WantCheck)
	}
	phase := "none"
	if shared && nbs != nil {
		if reused {
			phase = "hit"
			s.phaseHits.Inc()
		} else {
			phase = "miss"
			s.phaseMisses.Inc()
			s.phases.put(key, nbs)
		}
	}
	return rec, phase, nil
}
