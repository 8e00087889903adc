package flp

import "github.com/flpsim/flp/internal/failuredetector"

// Failure-detector types (the Chandra-Toueg escape), re-exported.
type (
	// Detector is the unreliable failure-detector oracle.
	Detector = failuredetector.Detector
	// EventuallyAccurate is a ◇P-style detector: noisy before StableAt,
	// exact afterwards.
	EventuallyAccurate = failuredetector.EventuallyAccurate
	// Paranoid always suspects everyone (complete, never accurate).
	Paranoid = failuredetector.Paranoid
	// Blind never suspects anyone (accurate, never complete).
	Blind = failuredetector.Blind
	// FDOptions configure a detector-driven consensus run.
	FDOptions = failuredetector.Options
	// FDResult reports a detector-driven consensus run.
	FDResult = failuredetector.Result
)

// RunWithDetector executes the rotating-coordinator consensus whose
// liveness is delegated to the given failure detector. Safety never
// consults the oracle.
func RunWithDetector(opt FDOptions, inputs Inputs) (*FDResult, error) {
	return failuredetector.Run(opt, inputs)
}
