//go:build !race

package remote

const raceDetector = false
