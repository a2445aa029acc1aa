//go:build race

package chaos

// raceDetector is set in a -race build, whose sync.Pool drops a quarter of
// what is put back at random: a pin on pooled allocation does not hold.
const raceDetector = true
