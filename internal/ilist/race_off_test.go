//go:build !race

package ilist

const raceDetector = false
