package bench

import (
	"fmt"

	"repro/internal/mem"
)

// BuildState is a reusable build-phase boundary: the heap images and
// host-side build state captured right before a kernel-timed benchmark's
// ResetForKernel. The build performs no simulated accesses, so the images
// do not depend on the coherence scheme or mechanism mode: one BuildState
// serves every configuration with the same BuildKey, and the heap
// fingerprint re-check in RunPhased guards each restore.
type BuildState struct {
	Benchmark string
	Procs     int
	Scale     int
	Images    []mem.HeapImage
	State     any
	// HeapFP is the runtime's heap fingerprint at the phase boundary,
	// recorded on the run that built the state. Every reuse re-checks it:
	// a restored image that fingerprints differently is a harness bug,
	// caught before it can contaminate a result.
	HeapFP uint64
}

// BuildKey is the key one build is shared under: benchmark, machine size
// and problem scale, whatever the coherence scheme or mechanism mode. There
// is no key for a benchmark without a Phased split, nor for a baseline run,
// whose machine shape differs.
func (info Info) BuildKey(cfg Config) (string, bool) {
	cfg = cfg.normalize()
	if info.Phased == nil || cfg.Baseline {
		return "", false
	}
	return buildKey(info.Name, cfg.Procs, cfg.Scale), true
}

func buildKey(name string, procs, scale int) string {
	return fmt.Sprintf("%s|P=%d|scale=%d", name, procs, scale)
}

// Reusable reports whether the build state can serve the configuration:
// the configuration has a BuildKey and the state was built under it.
func (bs *BuildState) Reusable(info Info, cfg Config) bool {
	key, ok := info.BuildKey(cfg)
	return ok && bs != nil && key == buildKey(bs.Benchmark, bs.Procs, bs.Scale)
}

// noopPhase is the shared end-of-phase func returned when no OnPhase
// hook is installed, so the unhooked path allocates no closures.
func noopPhase() {}

// beginPhase enters a named execution phase, returning the func that
// ends it.
func beginPhase(cfg Config, name string) func() {
	if cfg.OnPhase == nil {
		return noopPhase
	}
	if end := cfg.OnPhase(name); end != nil {
		return end
	}
	return noopPhase
}

// RunPhased executes one configuration, reusing the given build state
// when it fits and returning the (possibly new) build state for the next
// caller. reused reports whether the build phase was skipped. A
// configuration without a BuildKey falls back to the ordinary Run with no
// build state.
//
// The kernel half is bit-identical either way: the build performs no
// simulated accesses, so restoring its heap image is indistinguishable
// from re-running it.
func RunPhased(info Info, cfg Config, bs *BuildState) (Result, *BuildState, bool, error) {
	cfg = cfg.normalize()
	if _, ok := info.BuildKey(cfg); !ok {
		end := beginPhase(cfg, "run")
		res := info.Run(cfg)
		end()
		return res, nil, false, nil
	}
	r := cfg.NewRuntime()
	reused := bs.Reusable(info, cfg)
	var st any
	if reused {
		end := beginPhase(cfg, "restore_build")
		r.RestoreHeaps(bs.Images)
		st = bs.State
		end()
	} else {
		end := beginPhase(cfg, "build")
		st = info.Phased.Build(cfg, r)
		bs = &BuildState{
			Benchmark: info.Name,
			Procs:     cfg.Procs,
			Scale:     cfg.Scale,
			Images:    r.SnapshotHeaps(),
			State:     st,
		}
		end()
	}
	endKernel := beginPhase(cfg, "kernel")
	res := info.Phased.Kernel(cfg, r, st)
	endKernel()
	fp, ok := r.BuildHeapFingerprint()
	if !ok {
		return res, nil, reused, fmt.Errorf("bench: %s phased kernel crossed no phase boundary", info.Name)
	}
	if reused {
		if fp != bs.HeapFP {
			return res, nil, true, fmt.Errorf(
				"bench: %s restored build state fingerprints %#x, want %#x", info.Name, fp, bs.HeapFP)
		}
	} else {
		bs.HeapFP = fp
	}
	return res, bs, reused, nil
}
