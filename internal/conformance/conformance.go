package conformance

import (
	"fmt"
	"time"

	"github.com/flpsim/flp/internal/distexplore"
	"github.com/flpsim/flp/internal/explore"
	"github.com/flpsim/flp/internal/model"
)

// Options configure one conformance check. The zero value is usable and
// deliberately small: conformance budgets stay far below the exploration
// default because the contract under test — engines agree byte for byte —
// holds on truncated runs exactly as on complete ones, so a fuzzing
// iteration never needs to exhaust a large state space.
type Options struct {
	// Explore carries the exploration bounds shared by every engine.
	// MaxConfigs 0 means DefaultMaxConfigs (400, not the exploration
	// package's 200000); Workers is owned by the harness and ignored.
	Explore explore.Options
	// ParWorkers is the worker count of the parallel in-process leg
	// (the in-process engine also runs a leg at one worker). 0 means 8.
	ParWorkers int
	// DistWorkers, Shards, Replicas shape the distributed legs.
	// 0 means 3 workers, 4 shards, replication factor 2.
	DistWorkers, Shards, Replicas int
	// Chaos adds a second distributed leg over a FaultyTransport scripted
	// to kill one worker mid-run, with the victim and level drawn from
	// ChaosSeed. Requires DistWorkers >= 2 (a kill with no standby aborts
	// by design rather than diverging).
	Chaos     bool
	ChaosSeed int64
	// ClassifySamples is how many visited configurations get an
	// independent Classify run compared against the atlas. 0 means 8.
	ClassifySamples int
}

// DefaultMaxConfigs is the harness's own exploration budget.
const DefaultMaxConfigs = 400

func (o Options) withDefaults() Options {
	if o.Explore.MaxConfigs <= 0 {
		o.Explore.MaxConfigs = DefaultMaxConfigs
	}
	o.Explore = o.Explore.Normalized()
	o.Explore.Workers = 1
	if o.ParWorkers <= 0 {
		o.ParWorkers = 8
	}
	if o.DistWorkers <= 0 {
		o.DistWorkers = 3
	}
	if o.Shards <= 0 {
		o.Shards = 4
	}
	if o.Replicas <= 0 {
		o.Replicas = 2
	}
	if o.ClassifySamples <= 0 {
		o.ClassifySamples = 8
	}
	return o
}

// Divergence reports two engines disagreeing on an observable that the
// byte-identical-results contract says must match. Engine names the leg
// that disagreed with the sequential oracle.
type Divergence struct {
	Protocol string
	Engine   string
	Detail   string
}

func (d *Divergence) Error() string {
	return fmt.Sprintf("conformance: %s: engine %s diverged from the sequential oracle: %s",
		d.Protocol, d.Engine, d.Detail)
}

// step is one visit observation. Comparing full streams position by
// position is the strongest form of the contract: it subsumes counts,
// orders, depths, and witness schedules at once.
type step struct {
	key   string
	depth int
	path  string
}

// inProcStream collects the visit stream of an in-process exploration:
// engine is explore.ReferenceExplore or explore.ExploreFiltered.
func inProcStream(engine func(model.Protocol, *model.Config, explore.Options, func(model.Event) bool, explore.Visit) (bool, int),
	pr model.Protocol, root *model.Config, opt explore.Options) (bool, int, []step) {
	var steps []step
	complete, visited := engine(pr, root, opt, nil, func(cfg *model.Config, depth int, path func() model.Schedule) bool {
		steps = append(steps, step{key: cfg.Key(), depth: depth, path: path().String()})
		return false
	})
	return complete, visited, steps
}

// compareStreams returns the first divergence between the oracle stream
// and an engine's stream, or nil when they are byte-identical.
func compareStreams(protocol, engine string, oc bool, ov int, oracle []step, ec bool, ev int, got []step) *Divergence {
	div := func(format string, args ...any) *Divergence {
		return &Divergence{Protocol: protocol, Engine: engine, Detail: fmt.Sprintf(format, args...)}
	}
	if oc != ec || ov != ev {
		return div("(complete, visited) = (%v, %d), oracle (%v, %d)", ec, ev, oc, ov)
	}
	if len(oracle) != len(got) {
		return div("visit stream length %d, oracle %d", len(got), len(oracle))
	}
	for i := range oracle {
		if oracle[i] != got[i] {
			return div("visit %d: got {key %q depth %d path %q}, oracle {key %q depth %d path %q}",
				i, got[i].key, got[i].depth, got[i].path, oracle[i].key, oracle[i].depth, oracle[i].path)
		}
	}
	return nil
}

// cluster is one throwaway worker fleet plus a dialed coordinator.
type cluster struct {
	cl        *distexplore.Cluster
	listeners []distexplore.Listener
}

func (c *cluster) close() {
	if c.cl != nil {
		c.cl.Close()
	}
	for _, l := range c.listeners {
		l.Close()
	}
}

// rpcOptions keeps retry latency low so a scripted kill is declared and
// failed over in milliseconds.
func rpcOptions() distexplore.RPCOptions {
	return distexplore.RPCOptions{
		RPCTimeout:   5 * time.Second,
		DialTimeout:  250 * time.Millisecond,
		Retries:      2,
		RetryBackoff: 2 * time.Millisecond,
	}
}

// startCluster brings up n workers listening on tr under the given names
// and dials a coordinator through dialTr (they differ for the chaos leg,
// where faults are injected on the coordinator's side only).
func startCluster(tr, dialTr distexplore.Transport, names []string) (*cluster, error) {
	c := &cluster{}
	addrs := make([]string, 0, len(names))
	for _, name := range names {
		l, err := tr.Listen(name)
		if err != nil {
			c.close()
			return nil, fmt.Errorf("conformance: worker listen %q: %w", name, err)
		}
		c.listeners = append(c.listeners, l)
		addrs = append(addrs, l.Addr())
		go distexplore.NewWorker(nil).Serve(l)
	}
	cl, err := distexplore.Dial(dialTr, addrs, rpcOptions())
	if err != nil {
		c.close()
		return nil, fmt.Errorf("conformance: dial cluster: %w", err)
	}
	c.cl = cl
	return c, nil
}

func workerNames(prefix string, n int) []string {
	names := make([]string, n)
	for i := range names {
		names[i] = fmt.Sprintf("%s%d", prefix, i)
	}
	return names
}

// distStream runs the task on a cluster and collects its visit stream.
func distStream(c *cluster, tk distexplore.Task) (bool, int, []step, error) {
	var steps []step
	complete, visited, err := c.cl.Explore(tk, func(cfg *model.Config, depth int, path func() model.Schedule) bool {
		steps = append(steps, step{key: cfg.Key(), depth: depth, path: path().String()})
		return false
	})
	return complete, visited, steps, err
}

// Check runs one protocol through every engine and returns nil when all
// observables are byte-identical, a *Divergence when two engines
// disagree, and an ordinary error when the harness itself cannot run
// (unresolvable name, cluster setup failure). name must be a registry-
// resolvable protocol name — a registered key like "waitall", or a
// generated gen: name, which is self-describing — because that string is
// all the distributed workers get to rebuild the protocol from.
func Check(name string, inputs model.Inputs, opt Options) error {
	opt = opt.withDefaults()

	// The distributed legs rebuild the protocol from its name on every
	// worker; resolve it locally the same way, so a bad name is a setup
	// error here, not a confusing worker-side failure.
	pr, err := distexplore.RegistryProvider(name, len(inputs))
	if err != nil {
		return fmt.Errorf("conformance: protocol %q does not resolve through the registry: %w", name, err)
	}

	root, err := model.Initial(pr, inputs)
	if err != nil {
		return fmt.Errorf("conformance: %q: %w", name, err)
	}

	// Sequential oracle: the reference loop, which shares neither the
	// in-process engine's core nor its diamond rule.
	oc, ov, oracle := inProcStream(explore.ReferenceExplore, pr, root, opt.Explore)

	// In-process engine, inline and on the pool.
	for _, w := range []int{1, opt.ParWorkers} {
		parOpt := opt.Explore
		parOpt.Workers = w
		pc, pv, par := inProcStream(explore.ExploreFiltered, pr, root, parOpt)
		if d := compareStreams(name, fmt.Sprintf("in-process(workers=%d)", w), oc, ov, oracle, pc, pv, par); d != nil {
			return d
		}
	}

	task := distexplore.Task{
		Protocol: name, N: pr.N(), Inputs: inputs,
		Shards: opt.Shards, Replicas: opt.Replicas,
		Options: opt.Explore,
	}

	// Distributed engine, fault-free loopback.
	lb := distexplore.NewLoopback()
	cl, err := startCluster(lb, lb, workerNames("cw", opt.DistWorkers))
	if err != nil {
		return err
	}
	dc, dv, dist, derr := distStream(cl, task)
	cl.close()
	if derr != nil {
		return fmt.Errorf("conformance: distributed leg failed: %w", derr)
	}
	engine := fmt.Sprintf("distributed(w=%d,s=%d,r=%d)", opt.DistWorkers, opt.Shards, opt.Replicas)
	if d := compareStreams(name, engine, oc, ov, oracle, dc, dv, dist); d != nil {
		return d
	}

	// Distributed engine under a scripted kill: the chaos victim and kill
	// level come from ChaosSeed, the replication factor is forced >= 2 so
	// the loss fails over instead of aborting. The kill is not required
	// to fire — a shallow exploration may finish first — because the
	// contract is "whatever happens, results match", not "a kill
	// happened"; killRun-style firing assertions live in the distexplore
	// failover suite.
	if opt.Chaos && opt.DistWorkers >= 2 {
		seed := opt.ChaosSeed
		if seed == 0 {
			seed = 1
		}
		names := workerNames("xw", opt.DistWorkers)
		victim := int(uint64(seed) % uint64(opt.DistWorkers))
		level := int(uint64(seed) >> 4 % 5)
		inner := distexplore.NewLoopback()
		ft := distexplore.NewFaultyTransport(inner, distexplore.FaultPlan{
			Seed: seed, KillAddr: names[victim], KillLevel: level,
		})
		chaosTask := task
		if chaosTask.Replicas < 2 {
			chaosTask.Replicas = 2
		}
		cl, err = startCluster(inner, ft, names)
		if err != nil {
			return err
		}
		cc, cv, chaos, cerr := distStream(cl, chaosTask)
		cl.close()
		if cerr != nil {
			return fmt.Errorf("conformance: chaos leg (kill worker %d at level %d) failed: %w", victim, level, cerr)
		}
		engine = fmt.Sprintf("distributed-chaos(kill=w%d@L%d)", victim, level)
		if d := compareStreams(name, engine, oc, ov, oracle, cc, cv, chaos); d != nil {
			return d
		}
	}

	// Valency atlas. BuildAtlas is complete-or-refused and rejects depth
	// cutoffs, so the leg applies only to depth-unbounded runs; refusal
	// itself is an observable that must agree with the oracle's flag.
	if opt.Explore.MaxDepth == 0 {
		if d := checkAtlas(pr, root, name, opt, oc, ov, oracle); d != nil {
			return d
		}
	}
	return nil
}

// checkAtlas compares the one-pass atlas against the oracle stream and
// spot-checks its valency answers against independent Classify runs.
func checkAtlas(pr model.Protocol, root *model.Config, name string, opt Options, oc bool, ov int, oracle []step) error {
	atlas, ok := explore.BuildAtlas(pr, root, opt.Explore)
	div := func(format string, args ...any) *Divergence {
		return &Divergence{Protocol: name, Engine: "atlas", Detail: fmt.Sprintf(format, args...)}
	}
	if ok != oc {
		return div("BuildAtlas ok=%v, oracle complete=%v", ok, oc)
	}
	if !ok {
		// Refused: the fallback classification path is the oracle engine
		// itself, already covered; nothing more to compare.
		return nil
	}
	if atlas.Len() != ov {
		return div("atlas holds %d configurations, oracle visited %d", atlas.Len(), ov)
	}
	for i := range oracle {
		id := int32(i)
		if got := atlas.Config(id).Key(); got != oracle[i].key {
			return div("atlas id %d holds key %q, oracle visit %d has %q", id, got, i, oracle[i].key)
		}
		if got := atlas.PathTo(id).String(); got != oracle[i].path {
			return div("atlas path to id %d is %q, oracle has %q", id, got, oracle[i].path)
		}
	}

	// Sampled cross-check: the atlas's O(V+E) valency answers against the
	// per-configuration breadth-first classifier. Witness schedules may
	// legitimately differ between the two (both are shortest; ties break
	// differently), so lengths are compared, not bytes.
	samples := opt.ClassifySamples
	if samples > atlas.Len() {
		samples = atlas.Len()
	}
	stride := atlas.Len() / samples
	if stride == 0 {
		stride = 1
	}
	for s := 0; s < samples; s++ {
		id := int32(s * stride)
		at := atlas.InfoAt(id)
		cl := explore.Classify(pr, atlas.Config(id), opt.Explore)
		if at.Valency != cl.Valency {
			return div("id %d: atlas valency %v, Classify %v", id, at.Valency, cl.Valency)
		}
		if at.Exact != cl.Exact {
			return div("id %d: atlas exact=%v, Classify exact=%v", id, at.Exact, cl.Exact)
		}
		for _, d := range []model.Value{model.V0, model.V1} {
			if at.HasWitness(d) != cl.HasWitness(d) {
				return div("id %d: atlas HasWitness(%v)=%v, Classify %v", id, d, at.HasWitness(d), cl.HasWitness(d))
			}
			if !at.HasWitness(d) {
				continue
			}
			wl, _ := atlas.WitnessLen(id, d)
			clLen := len(cl.Witness0)
			if d == model.V1 {
				clLen = len(cl.Witness1)
			}
			if wl != clLen {
				return div("id %d: atlas witness length for %v is %d, Classify found %d", id, d, wl, clLen)
			}
		}
	}
	return nil
}
