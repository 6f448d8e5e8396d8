//go:build race

package oracle

func init() { raceDetector = true }
