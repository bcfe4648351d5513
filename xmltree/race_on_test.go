//go:build race

package xmltree

// raceDetector: under -race sync.Pool drops what is Put at random, so the
// renderers' pooled buffers are regrown now and then and allocation counts
// stop being exact.
const raceDetector = true
