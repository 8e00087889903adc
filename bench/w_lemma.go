package main

import (
	"fmt"

	"github.com/flpsim/flp/internal/adversary"
	"github.com/flpsim/flp/internal/explore"
	"github.com/flpsim/flp/internal/model"
	"github.com/flpsim/flp/internal/protocols"
)

// lemmaProto is one protocol the pipeline runs over.
type lemmaProto struct {
	id string
	pr model.Protocol
	// budget is MaxConfigs for every exploration of this protocol.
	budget int
	// unbounded protocols (paxos, benor, and fixtures larger than their
	// budget) have no reachable set the budget exhausts: valency there needs
	// directed probes, exactly as flpcheck configures them, and the frontier
	// census steps are skipped as flpcheck skips them.
	unbounded bool
	// One adversary op per (stage count, input vector) pair.
	stages    []int
	advInputs []string
}

// lemmaOp is one step of the paper's pipeline on one protocol. workers is
// explore.Options.Workers: 0 (the engines' default) when measured, 1 for
// the oracle.
type lemmaOp struct {
	id    string
	class string
	run   func(s scope, workers int) (string, error)
}

type lemmaPipeline struct {
	verifier
	ops []lemmaOp // in schedule order
}

// lemmaProtos lists the pipeline's protocols. Budgets and stage counts are
// sized so that the adversary ops (50–60 ms) are the slowest seventh of the
// schedule and every other op is cheaper than the cheapest of them: p95 then
// sits inside the adversary class, not on a boundary.
func lemmaProtos(smoke bool) ([]lemmaProto, error) {
	mixed := []string{"001", "010", "011", "100", "101", "110"}
	type entry struct {
		name      string
		n, budget int
		unbounded bool
		stages    []int
		advInputs []string
	}
	entries := []entry{
		{"naivemajority", 3, 0, false, nil, nil},
		{"waitall", 3, 0, false, nil, nil},
		{"2pc", 3, 0, false, nil, nil},
		{"2pc", 4, 0, false, nil, nil},
		{"3pc", 3, 0, false, nil, nil},
		{"3pc", 4, 0, false, nil, nil},
		{"paxos", 3, 200, true, []int{12, 13}, mixed},
		{"benor", 3, 100, true, []int{3}, mixed[:1]},
	}
	if smoke {
		entries = []entry{{"naivemajority", 3, 0, false, nil, nil}, {"2pc", 3, 0, false, nil, nil}, {"paxos", 3, 100, true, []int{2}, mixed[:1]}}
	}
	var out []lemmaProto
	for _, e := range entries {
		pr, err := lookupProtocol(e.name, e.n)
		if err != nil {
			return nil, err
		}
		id := fmt.Sprintf("%s%d", e.name, e.n)
		if e.budget > 0 {
			id += fmt.Sprintf("@%d", e.budget)
		}
		out = append(out, lemmaProto{id, pr, e.budget, e.unbounded, e.stages, e.advInputs})
	}
	if !smoke {
		// Paxos with ballots capped at 1: a second adversary target whose
		// stages cost an order of magnitude more than open Paxos's.
		out = append(out, lemmaProto{"paxos3-bounded@150", protocols.NewBoundedPaxosSynod(3, 1), 150, true, []int{4}, mixed[1:5]})
	}
	fx := fixtures
	if smoke {
		fx = fx[:1]
	}
	for _, f := range fx {
		pr, err := lookupProtocol(f.name, 0)
		if err != nil {
			return nil, err
		}
		out = append(out, lemmaProto{id: fmt.Sprintf("fixture-%s@%d", f.id, f.budget), pr: pr, budget: f.budget, unbounded: f.truncated})
	}
	return out, nil
}

func newLemmaPipeline(cfg config) (workload, error) {
	w := &lemmaPipeline{verifier: verifier{"lemma-pipeline", cfg.golden}}
	protos, err := lemmaProtos(cfg.smoke)
	if err != nil {
		return nil, err
	}
	var pool []lemmaOp
	for _, p := range protos {
		add := func(class string, step func(scope, lemmaProto, int) (string, error)) {
			pool = append(pool, lemmaOp{p.id + "/" + class, class, func(s scope, workers int) (string, error) {
				return step(s, p, workers)
			}})
		}
		if !p.unbounded {
			add("census", stepCensus)
			add("lemma3", stepLemma3)
			add("diamond", stepDiamond)
		}
		add("correctness", stepCorrectness)
		for _, stages := range p.stages {
			for _, in := range p.advInputs {
				inputs, err := parseInputs(in)
				if err != nil {
					return nil, err
				}
				pool = append(pool, lemmaOp{fmt.Sprintf("%s/adversary-%sx%d", p.id, in, stages), "adversary", func(s scope, workers int) (string, error) {
					return stepAdversary(s, p, inputs, stages, workers)
				}})
			}
		}
	}
	for _, i := range shuffled(cfg.seed, len(pool)) {
		w.ops = append(w.ops, pool[i])
	}
	return w, nil
}

// parseInputs reads an input vector written as a digit string.
func parseInputs(digits string) (model.Inputs, error) {
	in := make(model.Inputs, len(digits))
	for i, ch := range digits {
		switch ch {
		case '0':
			in[i] = model.V0
		case '1':
			in[i] = model.V1
		default:
			return nil, fmt.Errorf("inputs %q: position %d is not a bit", digits, i)
		}
	}
	return in, nil
}

func (w *lemmaPipeline) boot(string) error { return nil }
func (w *lemmaPipeline) shutdown()         {}

func (w *lemmaPipeline) pass(tr *tracer) passResult {
	return w.sequentialPass(tr, len(w.ops), func(i int) (string, string, func(scope) (string, error)) {
		op := w.ops[i]
		return op.id, op.class, func(s scope) (string, error) { return op.run(s, 0) }
	})
}

func (w *lemmaPipeline) oracle() (map[string]string, error) {
	out := map[string]string{}
	for _, op := range w.ops {
		d, err := op.run(scope{}, 1)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", op.id, err)
		}
		out[op.id] = d
	}
	return out, nil
}

func (p lemmaProto) options(workers int) explore.Options {
	return explore.Options{MaxConfigs: p.budget, Workers: workers}
}

func infoFields(v explore.ValencyInfo) string {
	return fmt.Sprint(v.Valency, v.Exact, v.Visited, v.Complete, v.Witness0, v.Witness1)
}

// stepCensus is Lemma 2: every initial configuration classified.
func stepCensus(s scope, p lemmaProto, workers int) (string, error) {
	_, end := s.begin("explore.CensusInitial")
	ic, err := explore.CensusInitial(p.pr, p.options(workers))
	end()
	if err != nil {
		return "", err
	}
	parts := []any{ic.Protocol, ic.N, ic.Counts, ic.AllExact}
	for _, iv := range ic.PerInput {
		parts = append(parts, iv.Inputs, infoFields(iv.Info))
	}
	if ic.Bivalent != nil {
		parts = append(parts, "bivalent", ic.Bivalent.Inputs)
	}
	if ic.Adjacent != nil {
		parts = append(parts, "adjacent", *ic.Adjacent)
	}
	return digestOf(parts...), nil
}

// stepCorrectness is Section 2's partial correctness: agreement and
// nontriviality over every accessible configuration.
func stepCorrectness(s scope, p lemmaProto, workers int) (string, error) {
	_, end := s.begin("explore.CheckPartialCorrectness")
	rep, err := explore.CheckPartialCorrectness(p.pr, p.options(workers))
	end()
	if err != nil {
		return "", err
	}
	parts := []any{rep.Protocol, rep.AgreementHolds, rep.ValuesSeen, rep.Nontrivial, rep.Configs, rep.Complete}
	if v := rep.Violation; v != nil {
		parts = append(parts, v.Inputs, v.Schedule, v.Deciders)
	}
	return digestOf(parts...), nil
}

// pipelineRoot is the configuration Lemma 3's steps start from: the first
// bivalent initial configuration, or, for a protocol that has none (which is
// how it escapes the theorem), the all-zeros one.
func pipelineRoot(s scope, p lemmaProto, workers int) (*model.Config, model.Inputs, error) {
	_, end := s.begin("explore.FindBivalentInitial")
	c, in, ok := explore.FindBivalentInitial(p.pr, p.options(workers))
	end()
	if ok {
		return c, in, nil
	}
	in = model.UniformInputs(p.pr.N(), model.V0)
	_, end = s.begin("model.Initial")
	c, err := model.Initial(p.pr, in)
	end()
	return c, in, err
}

// stepLemma3 is the frontier census of Lemma 3 for every event applicable
// to the root, sharing one valency cache the way flpcheck does.
func stepLemma3(s scope, p lemmaProto, workers int) (string, error) {
	c, in, err := pipelineRoot(s, p, workers)
	if err != nil {
		return "", err
	}
	opt := p.options(workers)
	cache := explore.NewCache(p.pr, opt)
	parts := []any{in}
	for _, e := range model.Events(c) {
		_, end := s.begin("explore.CensusLemma3")
		res, err := explore.CensusLemma3(p.pr, c, e, opt, cache)
		end()
		if err != nil {
			return "", err
		}
		parts = append(parts, res.Event, res.FrontierSize, res.DValencies, res.BivalentFound, res.Sigma, res.Complete)
	}
	return digestOf(parts...), nil
}

// stepDiamond checks the two commutativity figures of Lemma 3's proof for
// the first process's null event.
func stepDiamond(s scope, p lemmaProto, workers int) (string, error) {
	c, in, err := pipelineRoot(s, p, workers)
	if err != nil {
		return "", err
	}
	opt := p.options(workers)
	e := model.NullEvent(0)
	_, end := s.begin("explore.CheckLemma3Diamond")
	d, err := explore.CheckLemma3Diamond(p.pr, c, e, opt)
	end()
	if err != nil {
		return "", err
	}
	_, end = s.begin("explore.CheckLemma3Figure3")
	f, err := explore.CheckLemma3Figure3(p.pr, c, e, opt)
	end()
	if err != nil {
		return "", err
	}
	return digestOf(in, d, f), nil
}

// adversaryOptions configures the Theorem 1 adversary as flpcheck does.
func adversaryOptions(p lemmaProto, stages, workers int) adversary.Options {
	opt := adversary.Options{Stages: stages, Workers: workers}
	if p.unbounded {
		probe := explore.ProbeOptions{}
		opt.Probe = &probe
		opt.Valency = explore.Options{MaxConfigs: 1500}
		opt.Search = explore.Options{MaxConfigs: 2000}
	}
	return opt
}

// stepAdversary constructs a k-stage non-deciding run from a bivalent
// initial configuration and verifies it.
func stepAdversary(s scope, p lemmaProto, in model.Inputs, stages, workers int) (string, error) {
	_, end := s.beginN("adversary.RunFromInputs", stages)
	res, err := adversary.New(p.pr, adversaryOptions(p, stages, workers)).RunFromInputs(in)
	end()
	if err != nil {
		return "", err
	}
	_, end = s.begin("adversary.Verify")
	rep, err := adversary.Verify(p.pr, res)
	end()
	if err != nil {
		return "", err
	}
	examined := make([]int, len(res.Stages))
	for i, st := range res.Stages {
		examined[i] = st.Examined
	}
	return digestOf(res.Inputs, res.Schedule, rep.Stages, rep.Steps, rep.DecidedCount,
		rep.StepsPerProcess, rep.MinStepsPerProcess, rep.Rotations, examined), nil
}
