// Package byzantine implements the Oral Messages algorithm OM(m) of
// Lamport, Shostak, and Pease ("The Byzantine Generals Problem", TOPLAS
// 1982) — the synchronous Byzantine-fault contrast named in the paper's
// abstract. OM(m) achieves interactive consistency with n > 3m generals of
// which at most m are traitors:
//
//	IC1: all loyal lieutenants obey the same order.
//	IC2: if the commander is loyal, every loyal lieutenant obeys the
//	     order the commander sent.
//
// The implementation is the standard recursive one. A traitor's behaviour
// is a pluggable strategy choosing, per relay path and destination, what
// value to forward; the executor counts every point-to-point message, so
// the O(n^m) message growth the algorithm is famous for is measurable.
package byzantine

import (
	"fmt"

	"github.com/flpsim/flp/internal/model"
)

// Strategy decides the value a traitor sends. path is the chain of
// generals the value has passed through so far (ending with the traitor
// itself), to is the destination, and v is the value the traitor was
// supposed to relay.
type Strategy func(path []int, to int, v model.Value) model.Value

// Flip always relays the opposite value.
func Flip(_ []int, _ int, v model.Value) model.Value { return v.Other() }

// Split sends 1 to odd destinations and 0 to even ones — the classic
// two-faced commander.
func Split(_ []int, to int, _ model.Value) model.Value {
	return model.Value(to & 1)
}

// DefaultOrder is the value assumed when a general is silent ("retreat").
const DefaultOrder = model.V0

// Config describes one OM(m) execution.
type Config struct {
	// N is the number of generals, numbered 0..N-1; general 0 commands.
	N int
	// M is the recursion depth (the fault budget).
	M int
	// Traitors marks traitorous generals.
	Traitors map[int]bool
	// Strategy is the traitors' behaviour; nil defaults to Flip.
	Strategy Strategy
}

// Result reports one execution.
type Result struct {
	// Decisions maps every lieutenant (1..N-1) to the order it obeys.
	// Traitorous lieutenants' entries are meaningless but present.
	Decisions map[int]model.Value
	// Messages is the number of point-to-point sends performed.
	Messages int
}

// LoyalDecisions filters Decisions to loyal lieutenants.
func (r *Result) LoyalDecisions(cfg Config) map[int]model.Value {
	out := map[int]model.Value{}
	for l, v := range r.Decisions {
		if !cfg.Traitors[l] {
			out[l] = v
		}
	}
	return out
}

// IC1 reports whether all loyal lieutenants agree.
func (r *Result) IC1(cfg Config) bool {
	seen := map[model.Value]bool{}
	for _, v := range r.LoyalDecisions(cfg) {
		seen[v] = true
	}
	return len(seen) <= 1
}

// IC2 reports whether, given a loyal commander, every loyal lieutenant
// obeys the commander's order. Vacuously true for a traitorous commander.
func (r *Result) IC2(cfg Config, order model.Value) bool {
	if cfg.Traitors[0] {
		return true
	}
	for _, v := range r.LoyalDecisions(cfg) {
		if v != order {
			return false
		}
	}
	return true
}

// Run executes OM(cfg.M) with the commander issuing order v.
func Run(cfg Config, order model.Value) (*Result, error) {
	if cfg.N < 1 {
		return nil, fmt.Errorf("byzantine: need at least one general, got %d", cfg.N)
	}
	if cfg.M < 0 {
		return nil, fmt.Errorf("byzantine: negative recursion depth %d", cfg.M)
	}
	if len(cfg.Traitors) > cfg.M {
		return nil, fmt.Errorf("byzantine: %d traitors exceed budget m=%d", len(cfg.Traitors), cfg.M)
	}
	strategy := cfg.Strategy
	if strategy == nil {
		strategy = Flip
	}
	ex := &executor{cfg: cfg, strategy: strategy}
	participants := make([]int, cfg.N)
	for i := range participants {
		participants[i] = i
	}
	decisions := ex.om(cfg.M, 0, order, participants, []int{0})
	return &Result{Decisions: decisions, Messages: ex.messages}, nil
}

type executor struct {
	cfg      Config
	strategy Strategy
	messages int
}

// om runs OM(m) with the given commander and participant set (commander
// included), returning the value each lieutenant settles on for this
// sub-instance. path is the relay chain ending at the commander.
func (ex *executor) om(m, commander int, v model.Value, participants []int, path []int) map[int]model.Value {
	lieutenants := make([]int, 0, len(participants)-1)
	for _, p := range participants {
		if p != commander {
			lieutenants = append(lieutenants, p)
		}
	}

	// The commander sends its value to every lieutenant.
	received := map[int]model.Value{}
	for _, l := range lieutenants {
		ex.messages++
		if ex.cfg.Traitors[commander] {
			received[l] = ex.strategy(path, l, v)
		} else {
			received[l] = v
		}
	}

	if m == 0 {
		return received
	}

	// Each lieutenant relays its received value as commander of OM(m-1)
	// among the remaining lieutenants; then each lieutenant takes the
	// majority of what it got directly and what the others relayed.
	relayed := map[int]map[int]model.Value{} // relayer → (lieutenant → value)
	for _, l := range lieutenants {
		relayed[l] = ex.om(m-1, l, received[l], lieutenants, append(append([]int{}, path...), l))
	}

	final := map[int]model.Value{}
	for _, l := range lieutenants {
		votes := []model.Value{received[l]}
		for _, relayer := range lieutenants {
			if relayer == l {
				continue
			}
			votes = append(votes, relayed[relayer][l])
		}
		final[l] = majority(votes)
	}
	return final
}

// majority returns the majority value, with DefaultOrder breaking ties.
func majority(votes []model.Value) model.Value {
	ones := 0
	for _, v := range votes {
		if v == model.V1 {
			ones++
		}
	}
	if ones*2 > len(votes) {
		return model.V1
	}
	if ones*2 < len(votes) {
		return model.V0
	}
	return DefaultOrder
}
