package enginetest

import (
	"errors"
	"fmt"
	"slices"

	"github.com/flpsim/flp/internal/explore"
	"github.com/flpsim/flp/internal/model"
)

// Visit is one configuration a walk admitted: its binary canonical key, its
// depth and the schedule that reached it.
type Visit struct {
	Key   string
	Depth int
	Path  model.Schedule
}

// Stream is everything a walk shows: its visits in order, and what it
// returned. Comparing streams position by position subsumes counts, orders,
// depths and witness schedules at once.
type Stream struct {
	Complete bool
	Visited  int
	Visits   []Visit
	// Short marks a walk that stopped at a node boundary short of its
	// budget, as an atlas builder does (ErrShort).
	Short bool
}

var (
	// ErrShort is what an engine that admits whole nodes only answers when
	// the budget stops it: the reference admits up to the budget, so the
	// engine may stop short of it, and its visits must then be a prefix of
	// the reference's.
	ErrShort = errors.New("enginetest: stopped short at a node boundary")
	// ErrRefused is what an atlas engine answers where the complete-or-
	// refused contract refuses a case (Diff says where that is allowed).
	ErrRefused = errors.New("enginetest: no atlas answers this case")
)

// Record runs one engine's walk — which calls visit for each configuration
// the engine admits, in admission order, and returns what explore.Explore
// returns and the engine's error — and records its stream, ending the walk
// at the stopAt-th visit when stopAt is positive. It returns the walk's
// error, except ErrShort, which marks the stream Short instead.
func Record(stopAt int, walk func(visit explore.Visit) (complete bool, visited int, err error)) (Stream, error) {
	var s Stream
	complete, visited, err := walk(func(cfg *model.Config, depth int, path func() model.Schedule) bool {
		s.Visits = append(s.Visits, Visit{Key: string(cfg.KeyBytes()), Depth: depth, Path: path()})
		return len(s.Visits) == stopAt
	})
	s.Complete, s.Visited = complete, visited
	if errors.Is(err, ErrShort) {
		s.Short, err = true, nil
	}
	return s, err
}

// Reference is the reference observation of c: the visit stream and counts
// of explore.ReferenceExplore, the sequential loop that steps every event
// and looks nothing up.
func Reference(c Case) (Stream, error) {
	pr, root, err := c.Resolve()
	if err != nil {
		return Stream{}, err
	}
	return Record(c.StopAt, func(visit explore.Visit) (bool, int, error) {
		complete, visited := explore.ReferenceExplore(pr, root, c.Options, explore.AvoidFilter(c.Avoid), visit)
		return complete, visited, nil
	})
}

// DiffStreams returns the first place got departs from want, or nil when
// they are identical. A Short stream need only be a prefix of an incomplete
// want.
func DiffStreams(want, got Stream) error {
	if got.Short {
		if want.Complete || len(got.Visits) > len(want.Visits) {
			return fmt.Errorf("stopped short at %d visits, the reference made %d (complete=%v)", len(got.Visits), len(want.Visits), want.Complete)
		}
		want.Visits = want.Visits[:len(got.Visits)]
	} else if got.Complete != want.Complete || got.Visited != want.Visited {
		return fmt.Errorf("(complete, visited) = (%v, %d), reference (%v, %d)", got.Complete, got.Visited, want.Complete, want.Visited)
	}
	if len(got.Visits) != len(want.Visits) {
		return fmt.Errorf("%d visits, reference %d", len(got.Visits), len(want.Visits))
	}
	for i, w := range want.Visits {
		if g := got.Visits[i]; g.Key != w.Key || g.Depth != w.Depth || !sameSchedule(g.Path, w.Path) {
			return fmt.Errorf("visit %d is {depth %d, path %s, key %x}, reference {depth %d, path %s, key %x}",
				i, g.Depth, g.Path, g.Key, w.Depth, w.Path, w.Key)
		}
	}
	return nil
}

// Diff judges an engine's answer to case c — the stream Record made of its
// walk, and the walk's error — against ref, c's reference stream: nil when
// the answer is one the contract allows, the first divergence otherwise. An
// engine may refuse only a case no atlas answers: one with an event filter
// or a stop, or one the budget cuts.
func Diff(c Case, ref, got Stream, err error) error {
	if errors.Is(err, ErrRefused) {
		if ref.Complete && c.Atlasable() {
			return fmt.Errorf("refused a case the reference completes in %d configurations", ref.Visited)
		}
		return nil
	}
	if err != nil {
		return err
	}
	return DiffStreams(ref, got)
}

// WalkAtlas answers for an engine that builds atlases: ErrRefused when it
// built none, and otherwise a's nodes in id order, every stride-th of them
// (from the root; stride 1 is all) first held to Classify under opt
// (DiffValency), so an atlas that classifies wrongly diverges even where its
// node table is right. An atlas answers its whole graph: it does not stop
// where visit asks it to, and a factory refuses a case with a stop
// (Case.Atlasable). A nil visit checks the valencies alone.
func WalkAtlas(pr model.Protocol, opt explore.Options, a *explore.Atlas, stride int, visit explore.Visit) (bool, int, error) {
	if a == nil {
		return false, 0, ErrRefused
	}
	depth := a.Snapshot().Depth
	for id := range int32(a.Len()) {
		cfg := a.Config(id)
		if int(id)%stride == 0 {
			got, err := atlasValency(a, id)
			if err == nil {
				err = DiffValency(pr, cfg, ValencyOf(explore.Classify(pr, cfg, opt)), got)
			}
			if err != nil {
				return false, int(id), fmt.Errorf("atlas node %d: %w", id, err)
			}
		}
		if visit != nil {
			visit(cfg, int(depth[id]), func() model.Schedule { return a.PathTo(id) })
		}
	}
	return true, a.Len(), nil
}

// atlasValency reads node id's classification off a, reporting a witness
// descent that cannot finish — the atlas's distances are wrong — as an
// error.
func atlasValency(a *explore.Atlas, id int32) (v Valency, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("witness descent failed: %v", r)
		}
	}()
	return ValencyOf(a.InfoAt(id)), nil
}

// DiffAtlases returns the first node at which got departs from want, or
// nil: sizes, then per node the configuration and its dense id, the root
// path, the valency and exactness, and both witness schedules (whose
// lengths are the distance columns).
func DiffAtlases(want, got *explore.Atlas) error {
	if got.Len() != want.Len() || got.Edges() != want.Edges() {
		return fmt.Errorf("%d nodes and %d edges, want %d and %d", got.Len(), got.Edges(), want.Len(), want.Edges())
	}
	for id := range int32(want.Len()) {
		cfg := want.Config(id)
		if gid, ok := got.IDOf(cfg); !ok || gid != id || !got.Config(id).Equal(cfg) {
			return fmt.Errorf("node %d is not at the same dense id (got %d, ok=%v)", id, gid, ok)
		}
		if !sameSchedule(got.PathTo(id), want.PathTo(id)) {
			return fmt.Errorf("node %d: root path %s, want %s", id, got.PathTo(id), want.PathTo(id))
		}
		gi, err := atlasValency(got, id)
		if err != nil {
			return fmt.Errorf("node %d: %w", id, err)
		}
		wi := ValencyOf(want.InfoAt(id))
		if gi.Class != wi.Class || gi.Exact != wi.Exact || !sameSchedule(gi.Witness[0], wi.Witness[0]) || !sameSchedule(gi.Witness[1], wi.Witness[1]) {
			return fmt.Errorf("node %d: %+v, want %+v", id, gi, wi)
		}
	}
	return nil
}

func sameSchedule(a, b model.Schedule) bool {
	return slices.EqualFunc(a, b, model.Event.Same)
}

// Valency is one answer to a valency query on a configuration.
type Valency struct {
	Class explore.Valency
	Exact bool
	// Has[d] reports a witness for decision value d, and Witness[d] is a
	// schedule from the configuration to one in which some process decided
	// d (empty when the configuration itself has).
	Has     [2]bool
	Witness [2]model.Schedule
}

// ValencyOf is info as a Valency.
func ValencyOf(info explore.ValencyInfo) Valency {
	return Valency{
		Class:   info.Valency,
		Exact:   info.Exact,
		Has:     [2]bool{info.HasWitness(model.V0), info.HasWitness(model.V1)},
		Witness: [2]model.Schedule{info.Witness0, info.Witness1},
	}
}

// DiffValency returns the first way got, an answer about configuration c,
// departs from want, or nil: the class, exactness, which values have a
// witness, and each witness's length — every engine finds shortest ones,
// though ties may break differently — and each of got's witnesses must
// replay from c to a configuration in which some process decided its
// value.
func DiffValency(pr model.Protocol, c *model.Config, want, got Valency) error {
	if got.Class != want.Class || got.Exact != want.Exact {
		return fmt.Errorf("valency %s (exact=%v), reference %s (exact=%v)", got.Class, got.Exact, want.Class, want.Exact)
	}
	for d, has := range want.Has {
		if got.Has[d] != has {
			return fmt.Errorf("witness for %d: %v, reference %v", d, got.Has[d], has)
		}
		if !has {
			continue
		}
		if len(got.Witness[d]) != len(want.Witness[d]) {
			return fmt.Errorf("witness for %d has %d events, the reference's shortest %d", d, len(got.Witness[d]), len(want.Witness[d]))
		}
		end, err := model.ApplySchedule(pr, c, got.Witness[d])
		if err != nil {
			return fmt.Errorf("witness for %d does not replay: %w", d, err)
		}
		if !slices.Contains(end.DecisionValues(), model.Value(d)) {
			return fmt.Errorf("witness for %d (%s) reaches no decision %d", d, got.Witness[d], d)
		}
	}
	return nil
}
