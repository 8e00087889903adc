package model

import (
	"fmt"
	"strings"
)

// Schedule is a finite sequence of events applied in turn from some
// configuration. The associated sequence of steps is a run.
type Schedule []Event

// ApplySchedule applies σ to c, returning σ(c). It fails if any event is
// inapplicable at its turn.
func ApplySchedule(pr Protocol, c *Config, sigma Schedule) (*Config, error) {
	cur := c
	for i, e := range sigma {
		nc, err := Apply(pr, cur, e)
		if err != nil {
			return nil, fmt.Errorf("model: schedule event %d: %w", i, err)
		}
		cur = nc
	}
	return cur, nil
}

// MustApplySchedule is ApplySchedule but panics on error.
func MustApplySchedule(pr Protocol, c *Config, sigma Schedule) *Config {
	nc, err := ApplySchedule(pr, c, sigma)
	if err != nil {
		panic(err)
	}
	return nc
}

// Processes returns the set of processes taking steps in σ.
func (s Schedule) Processes() map[PID]bool {
	set := make(map[PID]bool)
	for _, e := range s {
		set[e.P] = true
	}
	return set
}

// DisjointFrom reports whether the sets of processes taking steps in s and
// o are disjoint — the hypothesis of Lemma 1.
func (s Schedule) DisjointFrom(o Schedule) bool {
	ps := s.Processes()
	for _, e := range o {
		if ps[e.P] {
			return false
		}
	}
	return true
}

func (s Schedule) String() string {
	parts := make([]string, len(s))
	for i, e := range s {
		parts[i] = e.String()
	}
	return strings.Join(parts, " ")
}
