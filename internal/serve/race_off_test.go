//go:build !race

package serve

// raceDetector is set in a -race build (see race_on_test.go).
const raceDetector = false
