//go:build !race

package xmltree

const raceDetector = false
