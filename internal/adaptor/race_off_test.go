//go:build !race

package adaptor

const raceDetector = false
