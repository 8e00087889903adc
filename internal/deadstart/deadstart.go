// Package deadstart implements the consensus protocol of Section 4 of the
// paper (Theorem 2): consensus is solvable when faults are restricted to
// processes that are dead from the start, a strict majority is alive, and
// no process dies during the execution.
//
// The protocol runs in two stages. In stage 1 every process broadcasts its
// process number and listens until it has heard from L-1 other processes,
// where L = ⌈(N+1)/2⌉; this defines the directed graph G with an edge
// i → j iff j heard from i, so G has indegree exactly L-1. In stage 2 every
// process broadcasts its number, its initial value, and the L-1 names it
// heard, then waits until it has received a stage-2 message from every
// ancestor it knows about — learning about more ancestors from each
// message — until the known-about set is closed. At that point it knows
// every edge of G incident on its ancestors, computes the transitive
// closure G+ restricted to them, finds the unique initial clique (nodes
// that are ancestors of all their own ancestors), and decides by an agreed
// rule on the clique members' initial values (here: majority, ties to 0).
// Since the initial clique is unique and every finisher computes the same
// one, all decisions agree.
package deadstart

import (
	"fmt"
	"sort"
	"strconv"
	"strings"

	"github.com/flpsim/flp/internal/enc"
	"github.com/flpsim/flp/internal/graph"
	"github.com/flpsim/flp/internal/model"
)

// Protocol is the initially-dead-processes consensus protocol.
type Protocol struct {
	// Procs is the number of processes N ≥ 2.
	Procs int
}

// New returns the Section 4 protocol for n processes.
func New(n int) *Protocol { return &Protocol{Procs: n} }

// L returns the stage-1 threshold L = ⌈(N+1)/2⌉: each process waits to
// hear from L-1 others, and the protocol requires at least L live
// processes to terminate.
func (pr *Protocol) L() int { return (pr.Procs + 2) / 2 }

// s2info is the content of a stage-2 message: a process's initial value
// and the set of processes it heard from in stage 1.
type s2info struct {
	input model.Value
	heard []int // sorted
}

type state struct {
	me    model.PID
	input model.Value
	out   model.Output

	sentS1 bool
	heard  map[int]bool // stage-1 senders, capped at L-1

	sentS2 bool
	info   map[int]s2info // stage-2 data per process, including self
}

func (s *state) Key() string {
	b := make([]byte, 0, 64)
	b = enc.AppendInt(b, int(s.me))
	b = enc.AppendInt(b, int(s.input))
	b = enc.AppendInt(b, int(s.out))
	b = enc.AppendBool(b, s.sentS1)
	b = appendInts(b, sortedKeys(s.heard))
	b = enc.AppendBool(b, s.sentS2)
	ids := make([]int, 0, len(s.info))
	for id := range s.info {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	for _, id := range ids {
		inf := s.info[id]
		b = enc.AppendInt(b, id)
		b = enc.AppendInt(b, int(inf.input))
		b = appendInts(b, inf.heard)
	}
	return string(b)
}

// appendInts appends vs as one key field: comma-separated, in the given
// order.
func appendInts(b []byte, vs []int) []byte {
	for i, v := range vs {
		if i > 0 {
			b = append(b, ',')
		}
		b = strconv.AppendInt(b, int64(v), 10)
	}
	return append(b, enc.Sep...)
}

func (s *state) Output() model.Output { return s.out }

func (s *state) clone() *state {
	ns := *s
	ns.heard = make(map[int]bool, len(s.heard))
	for k, v := range s.heard {
		ns.heard[k] = v
	}
	ns.info = make(map[int]s2info, len(s.info))
	for k, v := range s.info {
		ns.info[k] = v
	}
	return &ns
}

// Name implements model.Protocol.
func (pr *Protocol) Name() string { return fmt.Sprintf("deadstart(n=%d)", pr.Procs) }

// N implements model.Protocol.
func (pr *Protocol) N() int { return pr.Procs }

// Init implements model.Protocol.
func (pr *Protocol) Init(p model.PID, input model.Value) model.State {
	return &state{me: p, input: input, heard: map[int]bool{}, info: map[int]s2info{}}
}

const (
	bodyS1 = "S1"
	s2Tag  = "S2"
)

func s2Body(input model.Value, heard []int) string {
	parts := make([]string, len(heard))
	for i, h := range heard {
		parts[i] = strconv.Itoa(h)
	}
	return fmt.Sprintf("%s|%d|%s", s2Tag, input, strings.Join(parts, ","))
}

func parseS2(body string) (s2info, bool) {
	fields := strings.SplitN(body, "|", 3)
	if len(fields) != 3 || fields[0] != s2Tag {
		return s2info{}, false
	}
	v, err := strconv.Atoi(fields[1])
	if err != nil || (v != 0 && v != 1) {
		return s2info{}, false
	}
	inf := s2info{input: model.Value(v)}
	if fields[2] != "" {
		for _, part := range strings.Split(fields[2], ",") {
			h, err := strconv.Atoi(part)
			if err != nil {
				return s2info{}, false
			}
			inf.heard = append(inf.heard, h)
		}
	}
	return inf, true
}

// Step implements model.Protocol.
func (pr *Protocol) Step(p model.PID, s model.State, m *model.Message) (model.State, []model.Message) {
	st := s.(*state).clone()
	var sends []model.Message

	if !st.sentS1 {
		st.sentS1 = true
		sends = append(sends, model.BroadcastOthers(p, pr.Procs, bodyS1)...)
	}

	if m != nil {
		switch {
		case m.Body == bodyS1:
			if len(st.heard) < pr.L()-1 {
				st.heard[int(m.From)] = true
			}
		case strings.HasPrefix(m.Body, s2Tag):
			if inf, ok := parseS2(m.Body); ok {
				if _, dup := st.info[int(m.From)]; !dup {
					st.info[int(m.From)] = inf
				}
			}
		}
	}

	// Stage 1 complete: enter stage 2.
	if !st.sentS2 && len(st.heard) == pr.L()-1 {
		st.sentS2 = true
		mine := s2info{input: st.input, heard: sortedKeys(st.heard)}
		st.info[int(p)] = mine
		sends = append(sends, model.BroadcastOthers(p, pr.Procs, s2Body(mine.input, mine.heard))...)
	}

	// Stage 2 complete: known-about ancestor set closed under stage-2
	// reports. Compute the initial clique and decide.
	if st.sentS2 && !st.out.Decided() {
		if known, closed := pr.knownAncestors(st); closed {
			st.out = model.OutputOf(pr.decide(st, known))
		}
	}
	return st, sends
}

// knownAncestors computes the set of processes currently known to be
// ancestors of st.me, and whether a stage-2 message from every one of them
// has arrived (the stage-2 termination condition).
func (pr *Protocol) knownAncestors(st *state) (map[int]bool, bool) {
	known := make(map[int]bool)
	queue := sortedKeys(st.heard)
	for _, q := range queue {
		known[q] = true
	}
	for len(queue) > 0 {
		q := queue[0]
		queue = queue[1:]
		inf, ok := st.info[q]
		if !ok {
			continue // not yet heard from q in stage 2
		}
		for _, a := range inf.heard {
			if !known[a] {
				known[a] = true
				queue = append(queue, a)
			}
		}
	}
	for q := range known {
		if _, ok := st.info[q]; !ok {
			return known, false
		}
	}
	return known, true
}

// decide builds G restricted to the known ancestors (all of whose edges are
// known), takes its transitive closure, extracts the initial clique, and
// applies the agreed rule: majority of the clique members' initial values,
// ties to 0.
func (pr *Protocol) decide(st *state, known map[int]bool) model.Value {
	g := graph.New(pr.Procs)
	for j := range known {
		for _, i := range st.info[j].heard {
			g.AddEdge(i, j)
		}
	}
	// Edges into me complete the picture but are not needed for the
	// clique; include them for fidelity to "edges incident on ancestors".
	for i := range st.heard {
		g.AddEdge(i, int(st.me))
	}
	clique := g.TransitiveClosure().InitialClique()
	ones := 0
	for _, k := range clique {
		if st.info[k].input == model.V1 {
			ones++
		}
	}
	if ones*2 > len(clique) {
		return model.V1
	}
	return model.V0
}

func sortedKeys(set map[int]bool) []int {
	ks := make([]int, 0, len(set))
	for k := range set {
		ks = append(ks, k)
	}
	sort.Ints(ks)
	return ks
}
