package protocols

import (
	"fmt"
	"sort"

	"github.com/flpsim/flp/internal/model"
	"github.com/flpsim/flp/internal/protogen"
)

// Factory constructs a protocol instance for n processes.
type Factory func(n int) (model.Protocol, error)

// registry maps protocol names to factories, for the command-line tools.
var registry = map[string]Factory{
	"trivial0": func(n int) (model.Protocol, error) {
		return NewTrivial0(n), nil
	},
	"waitall": func(n int) (model.Protocol, error) {
		return NewWaitAll(n), nil
	},
	"naivemajority": func(n int) (model.Protocol, error) {
		if n < 3 {
			return nil, fmt.Errorf("naivemajority needs n ≥ 3, got %d", n)
		}
		return NewNaiveMajority(n), nil
	},
	"2pc": func(n int) (model.Protocol, error) {
		return NewTwoPhaseCommit(n), nil
	},
	"3pc": func(n int) (model.Protocol, error) {
		return NewThreePhaseCommit(n), nil
	},
	"paxos": func(n int) (model.Protocol, error) {
		if n < 3 {
			return nil, fmt.Errorf("paxos needs n ≥ 3, got %d", n)
		}
		return NewPaxosSynod(n), nil
	},
	"benor": func(n int) (model.Protocol, error) {
		return NewBenOrDeterministic(n, 1), nil
	},
	"onethird": func(n int) (model.Protocol, error) {
		if n < 4 {
			return nil, fmt.Errorf("onethird needs n ≥ 4 for any fault tolerance, got %d", n)
		}
		return NewOneThirdRule(n), nil
	},
}

// Unbounded reports whether the named protocol's reachable sets are
// unbounded (Paxos, Ben-Or): exhaustive sweeps never settle its valencies,
// so every front end classifies it by directed probes within small budgets
// and skips the checks that need a finite state space.
func Unbounded(name string) bool { return name == "paxos" || name == "benor" }

// Lookup returns the factory for a registered protocol name.
//
// Names carrying protogen's "gen:" prefix are self-describing — the whole
// protocol spec is encoded in the name — so they resolve without being
// registered. That is what lets generated protocols flow through every
// name-keyed surface (the distributed engine's workers, the CLIs) exactly
// like the hand-written ones: a remote worker rebuilds the protocol from
// the task's name alone. A "benor" spec runs on BenOrDeterministic at the
// spec's thresholds and round cap; a "table" spec on protogen's table
// automaton.
func Lookup(name string) (Factory, bool) {
	if protogen.IsGenerated(name) {
		return func(n int) (model.Protocol, error) {
			sp, err := protogen.FromName(name)
			if err != nil {
				return nil, err
			}
			if n != 0 && n != sp.N {
				return nil, fmt.Errorf("generated protocol %q is for n = %d, got n = %d", name, sp.N, n)
			}
			if sp.Template == protogen.TemplateBenOr {
				return newGeneratedBenOr(sp), nil
			}
			return protogen.NewTable(sp)
		}, true
	}
	f, ok := registry[name]
	return f, ok
}

// Names lists the registered protocol names in sorted order.
func Names() []string {
	names := make([]string, 0, len(registry))
	for n := range registry {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}
