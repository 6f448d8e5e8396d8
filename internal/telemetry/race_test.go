//go:build race

package telemetry

func init() { raceDetector = true }
