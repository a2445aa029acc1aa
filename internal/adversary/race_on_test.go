//go:build race

package adversary

// raceDetector is set in a -race build, whose instrumentation is not the
// build the allocation pins describe.
const raceDetector = true
