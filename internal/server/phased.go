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

// phaseBuild is one build in flight: runs that miss under its key wait on
// done, then restore bs — nil when the build failed.
type phaseBuild struct {
	done chan struct{}
	bs   *bench.BuildState
}

// phaseState is the phase-cache read. Like Olden's cache, which fills a
// missing line once, it fills a missing build once: a miss under a key
// whose build is in flight waits for it and returns what it built. A nil
// state (the run builds) comes with publish, which the caller calls with
// what it built, nil on failure: that stores the state and wakes the
// waiters. After a failed build, each waiter builds for itself.
func (s *Server) phaseState(key string) (bs *bench.BuildState, publish func(*bench.BuildState)) {
	s.buildMu.Lock()
	if bs, ok := lruGet(s.phases, key); ok {
		s.buildMu.Unlock()
		return bs, nil
	}
	b, inFlight := s.building[key]
	if !inFlight {
		b = &phaseBuild{done: make(chan struct{})}
		s.building[key] = b
	}
	s.buildMu.Unlock()
	if inFlight {
		<-b.done
		if b.bs != nil {
			return b.bs, nil
		}
	}
	return nil, func(bs *bench.BuildState) {
		if bs != nil {
			s.phases.put(key, bs)
		}
		if !inFlight { // the builder; a waiter building after a failure only stores
			s.buildMu.Lock()
			delete(s.building, key)
			s.buildMu.Unlock()
			b.bs = bs
			close(b.done)
		}
	}
}

// defaultExecutePhased runs the benchmark for real: a fresh machine +
// runtime per job (nothing shared with concurrent runs), the trace
// recorder and metrics registry attached so the record carries the
// digest that makes memoization verifiable. Phase-cacheable requests
// probe the phase cache first (phaseState) and restore the memoized build
// boundary on a hit; the returned disposition feeds the
// X-Oldend-Phase-Cache header.
// An unverified run — wrong answer versus the sequential reference — is
// an executor error, never a cacheable result.
//
// When sp is sampled, the run records into its own simulation recorder,
// attached to sp when the run returns, so the span tree bottoms out in
// real cache-miss events, and each bench phase ("build", "kernel", ...)
// becomes a child span.
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
	var publish func(*bench.BuildState)
	if shared {
		bs, publish = s.phaseState(key)
	}
	res, rec, nbs, reused, err := bench.RunPhasedRecorded(info, cfg, bs)
	if simRec != nil {
		sp.AttachSim(simRec)
		if d := simRec.Dropped(); d > 0 {
			s.traceDropped.Add(d)
			sp.SetAttrInt("sim_dropped", d)
		}
	}
	if err == nil && !res.Verified() {
		err = fmt.Errorf("%s run failed verification: %#x != %#x", req.Benchmark, res.Check, res.WantCheck)
	}
	if publish != nil {
		if err != nil {
			nbs = nil
		}
		publish(nbs)
	}
	switch {
	case err != nil:
		return rec, "none", err
	case !shared:
		return rec, "none", nil
	case reused:
		s.phaseHits.Inc()
		return rec, "hit", nil
	}
	s.phaseMisses.Inc()
	return rec, "miss", nil
}
