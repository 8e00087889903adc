//go:build race

package explore_test

// raceDetector reports a build with -race, where sync.Pool drops a share
// of its Puts at random, so a byte count that rests on pooled memory being
// reused reads that luck rather than the code.
const raceDetector = true
