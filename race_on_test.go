//go:build race

package extract

// raceDetector: the race detector allocates on its own, so allocation counts
// stop being exact.
const raceDetector = true
