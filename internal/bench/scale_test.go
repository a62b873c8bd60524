package bench_test

import (
	"testing"

	"repro/internal/bench"
	"repro/internal/mem"
)

// At the paper's sizes (scale 1) every kernel's problem fits the default
// heap section, gaddr.MaxOffset, on one processor and on thirty-two: the
// build of a kernel-timed benchmark, the whole run of a whole-program one
// (power and health, whose build is not split off and which are cheap).
// A kernel whose registration sets MinScale above 1 (barneshut, ROADMAP
// item 13 step 2) is held to that rule instead, the one server.Normalize
// enforces: its whole run at MinScale fits and verifies, and at
// MinScale-1 it exhausts processor 0's section (an *mem.ExhaustedError
// panic: barneshut runs whole, so it runs out inside its kernel).
func TestPaperScaleBuildsFit(t *testing.T) {
	if testing.Short() || raceDetectorEnabled {
		t.Skip("paper-size builds: a few seconds, and hundreds of MiB under -race, for allocation code with no interleaving to check")
	}
	for _, name := range batteryKernels {
		info, _ := bench.Get(name)
		for _, procs := range []int{1, 32} {
			cfg := bench.Config{Procs: procs, Scale: max(info.MinScale, 1)}
			func() {
				defer func() {
					if p := recover(); p != nil {
						t.Errorf("%s P=%d scale=%d: %v", name, procs, cfg.Scale, p)
					}
				}()
				switch {
				case info.MinScale > 1:
					if r := info.Run(cfg); !r.Verified() {
						t.Errorf("%s P=%d scale=%d: not verified", name, procs, cfg.Scale)
					}
				case info.Phased != nil:
					info.Phased.Build(cfg, cfg.NewRuntime())
				default:
					info.Run(cfg)
				}
			}()
		}
		if info.MinScale > 1 {
			func() {
				defer func() {
					if _, ok := recover().(*mem.ExhaustedError); !ok {
						t.Errorf("%s P=1 scale=%d did not exhaust a heap section: its MinScale %d is not the smallest that fits", name, info.MinScale-1, info.MinScale)
					}
				}()
				info.Run(bench.Config{Procs: 1, Scale: info.MinScale - 1})
			}()
		}
	}
}
