package bench_test

import (
	"testing"

	"repro/internal/bench"
)

// At the paper's sizes (scale 1) every kernel's problem fits the default
// heap section, gaddr.MaxOffset, on one processor and on thirty-two: the
// build of a kernel-timed benchmark, the whole run of a whole-program one
// (power and health, whose build is not split off and which are cheap).
// barneshut is left out: it still exhausts 64 MiB on processor 0, ROADMAP
// item 13 step 2.
func TestPaperScaleBuildsFit(t *testing.T) {
	if testing.Short() || raceDetectorEnabled {
		t.Skip("paper-size builds: a few seconds, and hundreds of MiB under -race, for allocation code with no interleaving to check")
	}
	for _, name := range batteryKernels {
		if name == "barneshut" {
			continue
		}
		info, _ := bench.Get(name)
		for _, procs := range []int{1, 32} {
			cfg := bench.Config{Procs: procs, Scale: 1}
			func() {
				defer func() {
					if p := recover(); p != nil {
						t.Errorf("%s P=%d scale=1: %v", name, procs, p)
					}
				}()
				if info.Phased != nil {
					info.Phased.Build(cfg, cfg.NewRuntime())
				} else {
					info.Run(cfg)
				}
			}()
		}
	}
}
