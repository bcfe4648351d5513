//go:build !race

package core_test

const raceDetector = false
