//go:build race

package ilist

// raceDetector: under -race sync.Pool drops what is Put at random, so
// allocation counts over pooled scratch stop being exact.
const raceDetector = true
