//go:build !race

package extract

const raceDetector = false
