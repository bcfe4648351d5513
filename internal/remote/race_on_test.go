//go:build race

package remote

// raceDetector: under -race sync.Pool drops what is Put at random, so pooled
// scratch is rebuilt now and then and allocation counts stop being exact.
const raceDetector = true
