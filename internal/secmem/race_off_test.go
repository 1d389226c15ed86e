//go:build !race

package secmem

const raceDetector = false
