package distexplore

import (
	"fmt"
	"strings"
	"sync/atomic"
	"testing"

	"github.com/flpsim/flp/internal/explore"
	"github.com/flpsim/flp/internal/model"
	"github.com/flpsim/flp/internal/modeltest"
	"github.com/flpsim/flp/internal/protocols"
)

// Adoption is parent-relative: a worker that did not expand an admitted
// node itself steps it once from its parent, which it holds when it
// replicates the parent's shard and is otherwise shipped, once per request,
// as a root schedule. The tests below count the protocol steps that costs on
// whole runs and through a resume backfill, and
// drive one worker by hand through every way an adopt request can be wrong.

// adoptAudit reads a cluster's frames off a tap and works out, from the
// frames alone, what adoption may cost: which admitted nodes each worker has
// to materialize (those past its adoptNext that no expand response of its
// own at that level carried — a worker caches exactly the successors it
// reports and replicates) and the depths of the foreign parents shipped.
// Beside that it measures what adoption did cost: the growth of the
// workers' step counter while adopt requests are in flight (phases never
// overlap, so nothing else steps then).
type adoptAudit struct {
	steps    *atomic.Int64
	mark     int64
	adopting bool
	workers  map[string]*auditedWorker

	adoptSteps   int64 // protocol steps taken while adopt requests were in flight
	nodes        int64 // nodes delivered past the receiver's adoptNext
	materialized int64 // of those, the ones below the root the receiver had not computed itself
	rootReplay   int64 // what materializing them by root schedule would have cost: their depths, summed
	foreign      int64 // foreign parents shipped
	foreignDepth int64 // their depths, summed
}

type auditedWorker struct {
	req        *initReq
	adoptNext  uint64
	cacheLevel int
	cached     map[string]bool
}

func newAdoptAudit(tap *frameTap, steps *atomic.Int64) *adoptAudit {
	a := &adoptAudit{steps: steps, workers: map[string]*auditedWorker{}}
	tap.out = a.request
	tap.in = a.response
	return a
}

func (a *adoptAudit) request(addr string, typ byte, p []byte) []byte {
	if now := typ == frameAdopt; now != a.adopting {
		if a.adopting = now; now {
			a.mark = a.steps.Load()
		} else {
			a.adoptSteps += a.steps.Load() - a.mark
		}
	}
	w := a.workers[addr]
	switch typ {
	case frameInit:
		if req, err := decodeInitReq(p); err == nil {
			a.workers[addr] = &auditedWorker{req: req, cacheLevel: -1, cached: map[string]bool{}}
		}
	case frameExpand:
		if q, err := decodeExpandReq(p); err == nil && w != nil && q.Level != w.cacheLevel {
			w.cacheLevel, w.cached = q.Level, map[string]bool{}
		}
	case frameAdopt:
		_, foreign, nodes, err := decodeAdoptReq(p, nil, nil)
		if err != nil || w == nil {
			break
		}
		for _, fp := range foreign {
			a.foreign++
			a.foreignDepth += int64(len(fp.Schedule))
		}
		for _, nd := range nodes {
			if nd.Index < w.adoptNext {
				continue
			}
			w.adoptNext = nd.Index + 1
			a.nodes++
			if nd.Depth > 0 && !w.cached[string(nd.Key)] {
				a.materialized++
				a.rootReplay += int64(nd.Depth)
			}
		}
	}
	return p
}

func (a *adoptAudit) response(addr string, typ byte, p []byte) {
	w := a.workers[addr]
	if typ != frameExpandResp || w == nil {
		return
	}
	_, cands, err := decodeCandidates(p, nil)
	if err != nil {
		return
	}
	for _, c := range cands {
		if workerReplicatesShard(w.req.WorkerIndex, ownerShard(c.Hash, w.req.Shards), w.req.WorkerCount, w.req.Replicas) {
			w.cached[string(c.Key)] = true
		}
	}
}

// check holds the run to the bound: every materialized node costs its one
// step, and beyond that only shipped foreign parents cost anything — each at
// most its depth, once. The root-schedule form cost the materialized nodes'
// depths instead.
func (a *adoptAudit) check(t *testing.T, label string) {
	t.Helper()
	if a.adopting {
		t.Fatalf("%s: the run ended inside an adopt phase", label)
	}
	t.Logf("%s: %d adopt steps for %d nodes (%d materialized, %d foreign parents of summed depth %d); by root schedule %d",
		label, a.adoptSteps, a.nodes, a.materialized, a.foreign, a.foreignDepth, a.rootReplay)
	if a.materialized == 0 || a.foreign == 0 {
		t.Errorf("%s: %d nodes materialized, %d foreign parents shipped: the run does not reach what the test is about", label, a.materialized, a.foreign)
	}
	if a.adoptSteps < a.materialized || a.adoptSteps > a.materialized+a.foreignDepth {
		t.Errorf("%s: %d adopt steps, want between %d (one per materialized node) and %d (plus every shipped foreign parent's depth)",
			label, a.adoptSteps, a.materialized, a.materialized+a.foreignDepth)
	}
	if a.adoptSteps >= a.rootReplay {
		t.Errorf("%s: %d adopt steps, no fewer than the %d that replaying each node's root schedule costs", label, a.adoptSteps, a.rootReplay)
	}
}

// countedCluster starts three workers whose protocol steps are counted —
// the coordinator resolves its own, uncounted — under a tap that feeds an
// audit, behind wrap (a fault injector, or nothing).
func countedCluster(t *testing.T, name string, n int, wrap func(Transport) Transport, opt RPCOptions) (*Cluster, *adoptAudit) {
	t.Helper()
	base, err := protocols.Resolve(name, n)
	if err != nil {
		t.Fatal(err)
	}
	var steps atomic.Int64
	pr := modeltest.StepCounter{Protocol: base, Steps: &steps}
	tap := &frameTap{Transport: NewLoopback()}
	audit := newAdoptAudit(tap, &steps)
	var addrs []string
	for i := 0; i < 3; i++ {
		l, err := tap.Listen(fmt.Sprintf("a%d", i))
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { l.Close() })
		go NewWorker(func(string, int) (model.Protocol, error) { return pr, nil }).Serve(l)
		addrs = append(addrs, l.Addr())
	}
	var tr Transport = tap
	if wrap != nil {
		tr = wrap(tap)
	}
	return dialCluster(t, tr, addrs, opt), audit
}

// TestAdoptionIsOneStep runs the benchmark's three budgeted kernels clean
// at 3 workers × 6 shards × R = 2 and holds the workers' adopt-phase steps
// to the bound, and to the exact counts measured (the runs are
// deterministic). With root schedules on the wire the same runs took 840,
// 384 and 1,089 adopt steps — the depth of every node a replica had not
// computed itself, which is what the audit's rootReplay adds up; they take
// 384, 184 and 513 now: one per such node (233, 142, 305) plus the foreign
// parents actually replayed.
func TestAdoptionIsOneStep(t *testing.T) {
	for i, want := range []int64{384, 184, 513} {
		k := budgetKernels[i+1]
		label := fmt.Sprintf("%s(%d)@%d", k.name, k.n, k.budget)
		cl, audit := countedCluster(t, k.name, k.n, nil, failoverOptions())
		task := Task{Protocol: k.name, N: k.n, Inputs: model.AlternatingInputs(k.n), Shards: 6, Replicas: 2,
			Options: explore.Options{MaxConfigs: k.budget}}
		if _, visited, err := cl.Explore(task, nil); err != nil || visited != k.budget {
			t.Fatalf("%s: visited %d, %v", label, visited, err)
		}
		audit.check(t, label)
		if audit.adoptSteps != want {
			t.Errorf("%s: %d adopt steps, pinned %d", label, audit.adoptSteps, want)
		}
	}
}

// TestExpandIsOneStepPerEvent holds the workers' expand phases to the
// reference loop's cost: one Protocol.Step per (expanded node, event). A
// worker drafts every step and builds only the successors it keeps, so the
// drafting defers the build, never the step — the workers take every step
// the in-process core's diamond rule reads off closed rows instead, which is
// what keeps them an independent cross-check of that rule. Every step the
// workers take outside adoption is an expand step, in a clean run each
// expanded node is expanded by one worker once, and the expanded nodes are
// the first ExpandedNodes in visit order.
func TestExpandIsOneStepPerEvent(t *testing.T) {
	for _, k := range budgetKernels {
		label := fmt.Sprintf("%s(%d)@%d", k.name, k.n, k.budget)
		cl, audit := countedCluster(t, k.name, k.n, nil, failoverOptions())
		task := Task{Protocol: k.name, N: k.n, Inputs: model.AlternatingInputs(k.n), Shards: 6, Replicas: 2,
			Options: explore.Options{MaxConfigs: k.budget}}
		var events []int
		if _, _, err := cl.Explore(task, func(c *model.Config, _ int, _ func() model.Schedule) bool {
			events = append(events, len(model.Events(c)))
			return false
		}); err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		want := int64(0)
		for _, n := range events[:cl.RunStats().ExpandedNodes] {
			want += int64(n)
		}
		if got := audit.steps.Load() - audit.adoptSteps; got != want {
			t.Errorf("%s: the workers took %d protocol steps expanding %d nodes, want %d, one per (node, event)",
				label, got, cl.RunStats().ExpandedNodes, want)
		}
	}
}

// TestAdoptionIsOneStepThroughBackfill holds the resume backfill to the same
// bound — it sends the level loop's frame, level by level, to workers of a
// fresh cluster that computed nothing themselves.
func TestAdoptionIsOneStepThroughBackfill(t *testing.T) {
	task := recoveryTask()
	ref := reference(t, task)

	t.Run("resume", func(t *testing.T) {
		cks := openCheckpoints(t, t.TempDir())
		crashRun(t, task, cks, 3)
		task := task
		task.Checkpoints, task.Resume = cks, true
		cl, audit := countedCluster(t, task.Protocol, task.N, nil, failoverOptions())
		mustAgree(t, "resume", ref, record(t, cl, task))
		if cl.RunStats().ResumedLevel < 0 {
			t.Fatal("the run did not resume from the checkpoint")
		}
		audit.check(t, "resume")
	})
}

// handWorker is one worker driven through dispatch: naivemajority(3) from
// 0,1,1 in a single shard it holds alone, its protocol steps counted, the
// root adopted.
type handWorker struct {
	t     *testing.T
	w     *Worker
	base  model.Protocol // uncounted, for building what the test sends
	root  *model.Config
	steps atomic.Int64
}

func newHandWorker(t *testing.T) *handWorker {
	h := &handWorker{t: t}
	var err error
	if h.base, err = protocols.Resolve("naivemajority", 3); err != nil {
		t.Fatal(err)
	}
	pr := modeltest.StepCounter{Protocol: h.base, Steps: &h.steps}
	h.w = NewWorker(func(string, int) (model.Protocol, error) { return pr, nil })
	req := initReq{Protocol: "naivemajority", N: 3, Inputs: model.Inputs{0, 1, 1}, Shards: 1, WorkerCount: 1, Replicas: 1}
	h.root = model.MustInitial(h.base, req.Inputs)
	h.ok(frameInit, req.encode())
	h.ok(frameAdopt, appendAdoptReq(nil, 0, nil, []adoptNode{{wireKey: identityOf(h.root)}}))
	return h
}

func (h *handWorker) send(typ byte, payload []byte) (byte, []byte) {
	return h.w.dispatch(typ, payload, new([]byte))
}

func (h *handWorker) ok(typ byte, payload []byte) []byte {
	h.t.Helper()
	rtyp, resp := h.send(typ, payload)
	if rtyp == frameErr {
		h.t.Fatalf("frame 0x%02x: %s", typ, resp)
	}
	return resp
}

// refused sends an adopt request that must be answered with an error
// containing every one of want, and must leave the frontier as it was.
func (h *handWorker) refused(level int, foreign []foreignParent, nodes []adoptNode, want ...string) {
	h.t.Helper()
	before := h.held()
	rtyp, msg := h.send(frameAdopt, appendAdoptReq(nil, level, foreign, nodes))
	if rtyp != frameErr {
		h.t.Fatalf("adopt answered 0x%02x, want an error containing %q", rtyp, want)
	}
	for _, s := range want {
		if !strings.Contains(string(msg), s) {
			h.t.Errorf("adopt error %q does not contain %q", msg, s)
		}
	}
	if after := h.held(); after != before {
		h.t.Errorf("a refused adopt changed the frontier: %d nodes held, %d before", after, before)
	}
}

func (h *handWorker) held() int {
	n := 0
	for _, level := range h.w.job.frontier {
		n += len(level)
	}
	return n
}

// child is the adopt record of e(parent) as node index, under parent index
// parentIdx at the given depth.
func (h *handWorker) child(index, depth, parentIdx uint64, parent *model.Config, e model.Event) (adoptNode, *model.Config) {
	c := model.MustApply(h.base, parent, e)
	return adoptNode{Index: index, Depth: depth, wireKey: identityOf(c), Parent: parentIdx, Via: e}, c
}

// TestAdoptDirected sends one worker the adopt requests a correct
// coordinator never would, and the ones it may send twice.
func TestAdoptDirected(t *testing.T) {
	events := model.Events

	t.Run("parent neither held nor shipped", func(t *testing.T) {
		h := newHandWorker(t)
		nd, _ := h.child(5, 1, 3, h.root, events(h.root)[0])
		h.refused(1, nil, []adoptNode{nd}, "node 5", "node 3", "neither")
		// Shipped, but under another index: still not a guess.
		h.refused(1, []foreignParent{{Index: 4, Schedule: model.Schedule{}}}, []adoptNode{nd}, "node 5", "node 3", "neither")
	})

	t.Run("tampered provenance", func(t *testing.T) {
		h := newHandWorker(t)
		evs := events(h.root)
		nd, c1 := h.child(1, 1, 0, h.root, evs[0])
		tampered := nd
		tampered.Via = evs[1] // another applicable event: a well-formed step to the wrong configuration
		h.refused(1, nil, []adoptNode{tampered}, "node 1", "integrity failure", "diverges")
		h.ok(frameAdopt, appendAdoptReq(nil, 1, nil, []adoptNode{nd}))
		// A grandchild under the wrong parent index: the root is held at
		// depth 0, node 1 at depth 1, and stepping the event from a parent
		// it does not belong to cannot produce the transmitted key.
		other, _ := h.child(2, 1, 0, h.root, evs[1])
		h.ok(frameAdopt, appendAdoptReq(nil, 1, nil, []adoptNode{other}))
		grand, _ := h.child(3, 2, 1, c1, events(c1)[0])
		grand.Parent = 2
		h.refused(2, nil, []adoptNode{grand}, "node 3", "node 2", "integrity failure")
		// A fingerprint that is not the key's.
		grand.Parent = 1
		grand.Hash++
		h.refused(2, nil, []adoptNode{grand}, "node 3", "integrity failure", "fingerprint")
	})

	t.Run("replayed request applies nothing twice", func(t *testing.T) {
		h := newHandWorker(t)
		evs := events(h.root)
		a, _ := h.child(1, 1, 0, h.root, evs[0])
		b, _ := h.child(2, 1, 0, h.root, evs[1])
		frame := appendAdoptReq(nil, 1, nil, []adoptNode{a, b})
		h.ok(frameAdopt, frame)
		held, steps := h.held(), h.steps.Load()
		if steps != 2 {
			t.Errorf("adopting two children of a held parent took %d steps, want 2", steps)
		}
		h.ok(frameAdopt, frame)
		if h.held() != held || h.steps.Load() != steps {
			t.Errorf("the replayed request was applied again: %d nodes held (%d before), %d steps (%d before)",
				h.held(), held, h.steps.Load(), steps)
		}
	})

	t.Run("foreign parent is replayed once, on first use", func(t *testing.T) {
		h := newHandWorker(t)
		evs := events(h.root)
		// Node 1 is never adopted here — as if its shard were another
		// worker's — so its two children arrive with its root schedule.
		_, c1 := h.child(1, 1, 0, h.root, evs[0])
		a, _ := h.child(2, 2, 1, c1, events(c1)[0])
		b, _ := h.child(3, 2, 1, c1, events(c1)[1])
		unused := foreignParent{Index: 9, Schedule: model.Schedule{evs[1], evs[0]}}
		h.ok(frameAdopt, appendAdoptReq(nil, 2, []foreignParent{{Index: 1, Schedule: model.Schedule{evs[0]}}, unused}, []adoptNode{a, b}))
		if got := h.steps.Load(); got != 3 {
			t.Errorf("two children of one foreign parent at depth 1 took %d steps, want 1 + 2", got)
		}
		if n := len(h.w.job.frontier[2]); n != 2 {
			t.Errorf("%d nodes in the level 2 frontier, want 2", n)
		}
	})

	t.Run("fingerprint collision in the level cache falls through to the parent step", func(t *testing.T) {
		h := newHandWorker(t)
		evs := events(h.root)
		nd, c := h.child(1, 1, 0, h.root, evs[0])
		_, impostor := h.child(2, 1, 0, h.root, evs[1])
		h.w.job.levelCache[nd.Hash] = impostor
		h.ok(frameAdopt, appendAdoptReq(nil, 1, nil, []adoptNode{nd}))
		if got := h.steps.Load(); got != 1 {
			t.Errorf("adoption behind a colliding cache entry took %d steps, want 1", got)
		}
		if got := h.w.job.frontier[1]; len(got) != 1 || !got[0].cfg.Equal(c) {
			t.Errorf("the frontier does not hold the stepped configuration: %+v", got)
		}
		// And a true cache entry is taken as it is: no step.
		nd2, c2 := h.child(2, 1, 0, h.root, evs[1])
		h.w.job.levelCache[nd2.Hash] = c2
		h.ok(frameAdopt, appendAdoptReq(nil, 1, nil, []adoptNode{nd2}))
		if got := h.steps.Load(); got != 1 {
			t.Errorf("adoption from the level cache stepped the protocol: %d steps, want 1", got)
		}
	})
}
