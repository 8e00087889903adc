package main

import (
	"strings"
	"testing"
	"time"
)

// TestParseChaos holds -chaos to its value ranges: probabilities in
// [0, 1], a non-negative delay and kill level. Each refusal names its key.
func TestParseChaos(t *testing.T) {
	addrs := []string{"h0:1", "h1:1"}
	plan, err := parseChaos("seed=7,drop=0.25,delay=1,delayfor=2ms,trunc=0,kill=1@3", addrs)
	if err != nil {
		t.Fatal(err)
	}
	if plan.Seed != 7 || plan.DropProb != 0.25 || plan.DelayProb != 1 || plan.Delay != 2*time.Millisecond ||
		plan.TruncateProb != 0 || plan.KillAddr != "h1:1" || plan.KillLevel != 3 {
		t.Fatalf("parsed %+v", plan)
	}
	for spec, key := range map[string]string{
		"drop=1.5":      "drop",
		"drop=-0.1":     "drop",
		"drop=NaN":      "drop",
		"delay=2":       "delay",
		"delay=nan":     "delay",
		"trunc=1.0001":  "trunc",
		"trunc=-Inf":    "trunc",
		"delayfor=-1ms": "delayfor",
		"kill=0@-1":     "kill",
		"drop=x":        "drop",
	} {
		_, err := parseChaos(spec, addrs)
		if err == nil {
			t.Errorf("%s: accepted", spec)
		} else if !strings.Contains(err.Error(), key) {
			t.Errorf("%s: error %q does not name %s", spec, err, key)
		}
	}
}

// TestInputVectors holds -inputs to model.ParseInputs's form (011), commas
// allowed between the bits, and "all" to every vector. Each refusal names
// what is wrong: the length, or the position that is not a bit; "all" at
// an n whose vectors cannot be listed is refused too.
func TestInputVectors(t *testing.T) {
	for _, spec := range []string{"011", "0,1,1"} {
		ins, err := inputVectors(spec, 3)
		if err != nil || len(ins) != 1 || ins[0].String() != "011" {
			t.Errorf("%q: got %v, %v; want [011]", spec, ins, err)
		}
	}
	if ins, err := inputVectors("all", 3); err != nil || len(ins) != 8 {
		t.Errorf("all: got %d vectors, %v; want 8", len(ins), err)
	}
	for _, n := range []int{-1, 1, 63, 64} {
		if ins, err := inputVectors("all", n); err == nil || !strings.Contains(err.Error(), "needs 2 ≤ n") {
			t.Errorf("all at n=%d: got %d vectors, %v; want a refusal", n, len(ins), err)
		}
	}
	for _, tc := range []struct{ spec, want string }{
		{"01", "has 2 values, want 3"},
		{"0,1,1,0", "has 4 values, want 3"},
		{"", "has 0 values, want 3"},
		{"0,1,2", "position 2 is not a bit"},
		{"01x", "position 2 is not a bit"},
		{"0, 1, 1", "position 1 is not a bit"},
	} {
		_, err := inputVectors(tc.spec, 3)
		if err == nil {
			t.Errorf("%q: accepted", tc.spec)
		} else if !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%q: error %q does not say %q", tc.spec, err, tc.want)
		}
	}
}
