//go:build race

package bench_test

// raceDetectorEnabled reports whether this binary was built with -race.
// The scheduler battery (sched_battery_test.go) trims itself to twenty of its
// ninety configurations under the race detector. What the battery checks —
// that ninety whole runs come out byte for byte as pinned — does not depend
// on the build mode and runs in full in every non-race test job; what the
// race build adds is instrumented coroutine switches and memory accesses,
// and one parallel configuration per kernel and mode already drives every
// kernel's code through those. The serial P=1 runs have one processor's
// worth of interleaving to offer, and under instrumentation the first
// sixty took 75 s against a trimmed ten's 11 s where this was measured.
const raceDetectorEnabled = true
