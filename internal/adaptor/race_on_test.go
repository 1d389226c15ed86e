//go:build race

package adaptor

// raceDetector reports whether this binary was built with -race: the
// detector makes sync.Pool drop buffers at random, so allocation counts
// are not exact under it.
const raceDetector = true
