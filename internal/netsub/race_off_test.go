//go:build !race

package netsub

// raceDetector is set in a -race build (see race_on_test.go).
const raceDetector = false
