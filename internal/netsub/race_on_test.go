//go:build race

package netsub

// raceDetector is set in a -race build, whose instrumentation allocates on
// its own account: an allocation pin does not hold there.
const raceDetector = true
