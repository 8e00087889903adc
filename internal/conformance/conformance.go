package conformance

import (
	"fmt"
	"sync"
	"time"

	"github.com/flpsim/flp/internal/distexplore"
	"github.com/flpsim/flp/internal/enginetest"
	"github.com/flpsim/flp/internal/explore"
)

// The legs' shapes are fixed: the in-process engine runs inline and on a
// pool of parWorkers, the distributed engine on distWorkers workers over
// shards hash ranges at replication factor replicas, once fault-free and
// once with one worker killed (the kill needs a standby replica, which
// replicas = 2 provides).
const (
	parWorkers  = 8
	distWorkers = 3
	shards      = 4
	replicas    = 2
)

// DefaultMaxConfigs is the exploration budget of a case that names none:
// the contract under test — engines agree byte for byte — holds on
// truncated runs exactly as on complete ones, so a fuzzing iteration never
// needs to exhaust a large state space.
const DefaultMaxConfigs = 400

// classifySamples is how many atlas nodes, evenly spaced from the root, get
// an independent Classify run in the atlas leg.
const classifySamples = 8

// Divergence reports an engine disagreeing with the reference on an
// observable that the byte-identical-results contract says must match.
// Engine names the leg that disagreed.
type Divergence struct {
	Protocol string
	Engine   string
	Detail   string
}

func (d *Divergence) Error() string {
	return fmt.Sprintf("conformance: %s: engine %s diverged from the sequential oracle: %s",
		d.Protocol, d.Engine, d.Detail)
}

// cluster is one throwaway worker fleet plus a dialed coordinator.
type cluster struct {
	cl        *distexplore.Cluster
	listeners []distexplore.Listener
	workers   []*distexplore.Worker
	serving   sync.WaitGroup
}

// close stops the fleet and returns once every worker has stopped: the
// coordinator hangs up, each worker drains and stops accepting, and each
// waits out its connections. Stopped this way, the Cluster and Workers hand
// the memory they grew to the next leg's (distexplore.Cluster.Close,
// Worker.Wait), so only the first cluster a process builds starts cold.
func (c *cluster) close() {
	if c.cl != nil {
		c.cl.Close()
	}
	for i, l := range c.listeners {
		c.workers[i].Drain()
		l.Close()
	}
	c.serving.Wait()
	for _, w := range c.workers {
		w.Wait()
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
		w := distexplore.NewWorker(nil)
		c.listeners, c.workers = append(c.listeners, l), append(c.workers, w)
		addrs = append(addrs, l.Addr())
		c.serving.Add(1)
		go func() {
			defer c.serving.Done()
			w.Serve(l)
		}()
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

// Check runs case c through every engine and returns nil when each agrees
// with the reference (enginetest.Diff), a *Divergence when one does not,
// and an ordinary error when the harness itself cannot run (unresolvable
// name, cluster setup or transport failure). c's protocol must resolve
// through the registry — a registered key like "waitall", or a
// self-describing gen: name — because that string is all the distributed
// workers get to rebuild it from. A case that names no budget runs at
// DefaultMaxConfigs.
//
// The chaos leg's victim and kill level are drawn from the root's
// fingerprint (Config.Hash), so every check of one case — a fuzzing
// iteration, a corpus fixture, flpcheck -conformance -inputs — scripts
// the same kill.
func Check(c enginetest.Case) error {
	if c.Options.MaxConfigs <= 0 {
		c.Options.MaxConfigs = DefaultMaxConfigs
	}
	c.Options.Workers = 1
	pr, root, err := c.Resolve()
	if err != nil {
		return fmt.Errorf("conformance: protocol %q does not resolve through the registry: %w", c.Protocol, err)
	}
	ref, err := enginetest.Reference(c)
	if err != nil {
		return err
	}
	diverged := func(engine string, got enginetest.Stream, err error) error {
		if d := enginetest.Diff(c, ref, got, err); d != nil {
			return &Divergence{Protocol: c.Protocol, Engine: engine, Detail: d.Error()}
		}
		return nil
	}

	// In-process engine, inline and on the pool.
	for _, w := range []int{1, parWorkers} {
		eopt := c.Options
		eopt.Workers = w
		got, err := enginetest.Record(c.StopAt, func(visit explore.Visit) (bool, int, error) {
			complete, visited := explore.ExploreFiltered(pr, root, eopt, explore.AvoidFilter(c.Avoid), visit)
			return complete, visited, nil
		})
		if err := diverged(fmt.Sprintf("in-process(workers=%d)", w), got, err); err != nil {
			return err
		}
	}

	task := distexplore.Task{
		Protocol: c.Protocol, N: c.N, Inputs: c.Inputs, Prefix: c.Prefix, Avoid: c.Avoid,
		Shards: shards, Replicas: replicas, Options: c.Options,
	}
	// distributed runs task on a fresh cluster; a run that fails is a
	// harness error, not a divergence.
	distributed := func(engine string, tr, dialTr distexplore.Transport, names []string, task distexplore.Task) error {
		cl, err := startCluster(tr, dialTr, names)
		if err != nil {
			return err
		}
		defer cl.close()
		got, err := enginetest.Record(c.StopAt, func(visit explore.Visit) (bool, int, error) { return cl.cl.Explore(task, visit) })
		if err != nil {
			return fmt.Errorf("conformance: %s leg failed: %w", engine, err)
		}
		return diverged(engine, got, nil)
	}

	// Distributed engine, fault-free loopback.
	lb := distexplore.NewLoopback()
	engine := fmt.Sprintf("distributed(w=%d,s=%d,r=%d)", distWorkers, shards, replicas)
	if err := distributed(engine, lb, lb, workerNames("cw", distWorkers), task); err != nil {
		return err
	}

	// Distributed engine under a scripted kill of the victim at the level
	// the root's fingerprint names; replication lets the loss fail over
	// instead of aborting. The kill is not required to fire — a shallow
	// exploration may finish first — because the contract is "whatever
	// happens, results match", not "a kill happened"; the distexplore
	// failover suite asserts the firing.
	h := root.Hash()
	names := workerNames("xw", distWorkers)
	victim, level := int(h%distWorkers), int(h>>4%5)
	inner := distexplore.NewLoopback()
	ft := distexplore.NewFaultyTransport(inner, distexplore.FaultPlan{KillAddr: names[victim], KillLevel: level})
	engine = fmt.Sprintf("distributed-chaos(kill=w%d@L%d)", victim, level)
	if err := distributed(engine, inner, ft, names, task); err != nil {
		return err
	}

	// Valency atlas: its node table is the reference stream where it
	// answers at all (complete-or-refused), and sampled nodes classify as
	// independent Classify runs do.
	var atlas *explore.Atlas
	if c.Atlasable() {
		atlas, _ = explore.BuildAtlas(pr, root, c.Options)
	}
	stride := 1
	if atlas != nil {
		stride = max(1, atlas.Len()/classifySamples)
	}
	got, err := enginetest.Record(c.StopAt, func(visit explore.Visit) (bool, int, error) {
		return enginetest.WalkAtlas(pr, c.Options, atlas, stride, visit)
	})
	return diverged("atlas", got, err)
}
