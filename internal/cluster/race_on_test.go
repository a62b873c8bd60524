//go:build race

package cluster

// raceDetectorEnabled reports whether this binary was built with -race,
// whose instrumentation changes allocation counts.
const raceDetectorEnabled = true
