//go:build !race

package adversary

// raceDetector is set in a -race build (see race_on_test.go).
const raceDetector = false
