//go:build !race

package chaos

// raceDetector is set in a -race build (see race_on_test.go).
const raceDetector = false
