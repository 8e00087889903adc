package main

import (
	"fmt"
	"testing"
)

// TestFlagParsers holds the three flag parsers to the process range
// [0, n): a delay victim or crash PID outside it is refused, not run as
// a schedule that delays or crashes nobody.
func TestFlagParsers(t *testing.T) {
	const n = 3
	cases := []struct {
		name  string
		parse func() error
		ok    bool
	}{
		{"delay:2", func() error { _, err := buildScheduler("delay:2", n); return err }, true},
		{"delay:3", func() error { _, err := buildScheduler("delay:3", n); return err }, false},
		{"delay:-1", func() error { _, err := buildScheduler("delay:-1", n); return err }, false},
		{"delay:x", func() error { _, err := buildScheduler("delay:x", n); return err }, false},
		{"crash 2:0", func() error { _, err := parseCrashes("2:0", n); return err }, true},
		{"crash n:0", func() error { _, err := parseCrashes(fmt.Sprintf("%d:0", n), n); return err }, false},
		{"inputs 011", func() error { _, err := parseInputs("011", n); return err }, true},
		{"inputs 01", func() error { _, err := parseInputs("01", n); return err }, false},
	}
	for _, c := range cases {
		if err := c.parse(); (err == nil) != c.ok {
			t.Errorf("%s: err = %v, want ok=%v", c.name, err, c.ok)
		}
	}
}

// TestHostileNRefused holds -n to what a protocol can run at: below 2
// processes every name, deadstart included, is refused before main sizes
// the inputs, scheduler or crash plan by it.
func TestHostileNRefused(t *testing.T) {
	for _, name := range []string{"waitall", "2pc", "deadstart"} {
		for _, n := range []int{-1, 0, 1} {
			if pr, err := buildProtocol(name, n); err == nil {
				t.Errorf("%s at n = %d: built %s", name, n, pr.Name())
			}
		}
	}
}
