package main

import (
	"fmt"

	"github.com/flpsim/flp/internal/explore"
	"github.com/flpsim/flp/internal/model"
)

// exploreKernels are the wide-frontier kernels: every input vector of each
// is one op.
var exploreKernels = []struct {
	name string
	n    int
}{
	{"naivemajority", 4}, {"onethird", 4}, {"paxos", 3}, {"benor", 3},
}

// exploreBudget is MaxConfigs per exploration. All four kernels are larger
// than it from every root, so every op admits exactly this many
// configurations and op cost varies only with frontier shape.
const (
	exploreBudget      = 1000
	exploreSmokeBudget = 60
)

type exploreOp struct {
	id   string
	pr   model.Protocol
	root *model.Config
}

type exploreWide struct {
	verifier
	ops    []exploreOp // in schedule order
	budget int
}

func newExploreWide(cfg config) (workload, error) {
	w := &exploreWide{verifier: verifier{"explore-wide", cfg.golden}, budget: exploreBudget}
	if cfg.smoke {
		w.budget = exploreSmokeBudget
	}
	var pool []exploreOp
	for _, k := range exploreKernels {
		pr, err := lookupProtocol(k.name, k.n)
		if err != nil {
			return nil, err
		}
		for _, in := range model.AllInputs(k.n) {
			root, err := model.Initial(pr, in)
			if err != nil {
				return nil, err
			}
			pool = append(pool, exploreOp{fmt.Sprintf("%s%d/%s@%d", k.name, k.n, in, w.budget), pr, root})
		}
	}
	for _, i := range shuffled(cfg.seed, len(pool)) {
		w.ops = append(w.ops, pool[i])
	}
	return w, nil
}

func (w *exploreWide) boot(string) error { return nil }
func (w *exploreWide) shutdown()         {}

// explore runs one op's exploration and digests its answer.
func (w *exploreWide) explore(s scope, op exploreOp, workers int) string {
	visit, sum := visitSum()
	_, end := s.begin("explore.Explore")
	complete, visited := explore.Explore(op.pr, op.root, explore.Options{MaxConfigs: w.budget, Workers: workers}, nil, visit)
	end()
	return digestOf(complete, visited, sum())
}

func (w *exploreWide) pass(tr *tracer) passResult {
	return w.sequentialPass(tr, len(w.ops), func(i int) (string, string, func(scope) (string, error)) {
		op := w.ops[i]
		return op.id, "explore", func(s scope) (string, error) { return w.explore(s, op, 0), nil }
	})
}

func (w *exploreWide) oracle() (map[string]string, error) {
	out := map[string]string{}
	for _, op := range w.ops {
		out[op.id] = w.explore(scope{}, op, 1)
	}
	return out, nil
}
