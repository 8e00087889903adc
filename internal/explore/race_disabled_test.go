//go:build !race

package explore_test

// raceDetector reports a build with -race; see race_enabled_test.go.
const raceDetector = false
