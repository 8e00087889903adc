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
