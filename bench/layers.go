package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"

	"github.com/flpsim/flp/internal/adversary"
	"github.com/flpsim/flp/internal/atlasstore"
	"github.com/flpsim/flp/internal/distexplore"
	"github.com/flpsim/flp/internal/explore"
	"github.com/flpsim/flp/internal/model"
)

// Per-layer probes. A traced run calls every probe, whatever workload it
// was asked for, so each traced run prints every per-layer metric. A probe
// drives one layer through its exported functions only, under spans, on
// inputs taken from the workloads' own pools; each metric is the median
// over the calls named in README.md, and counts marked (exact) there repeat
// from run to run.

// perLayerUnits names every per-layer metric a traced run prints, with its
// unit. BENCHMARK.json lists the same names; a test keeps the two in step.
var perLayerUnits = map[string]string{
	"adversary.examined_per_stage":      "count",
	"adversary.extend_stage_ms":         "ms",
	"adversary.stage_ms":                "ms",
	"adversary.verify_ms":               "ms",
	"atlasstore.bytes_per_config":       "B",
	"atlasstore.checkpoint_load_ms":     "ms",
	"atlasstore.checkpoint_save_ms":     "ms",
	"atlasstore.cold_ms":                "ms",
	"atlasstore.corrupt":                "count",
	"atlasstore.deepen_configs_per_s":   "1/s",
	"atlasstore.deepen_reexpanded":      "count",
	"atlasstore.load_ms":                "ms",
	"atlasstore.load_speedup_x":         "x",
	"atlasstore.persist_overhead_x":     "x",
	"distexplore.bytes_per_config":      "B",
	"distexplore.checkpoints_per_run":   "count",
	"distexplore.clean_configs_per_s":   "1/s",
	"distexplore.dial_ms":               "ms",
	"distexplore.frames_per_level":      "count",
	"distexplore.kill_extra_ms":         "ms",
	"distexplore.live_expanded_ratio":   "ratio",
	"distexplore.overhead_x":            "x",
	"distexplore.replication_x":         "x",
	"distexplore.resume_extra_ms":       "ms",
	"distexplore.rpc_wait_share":        "ratio",
	"explore.admit_ratio":               "ratio",
	"explore.atlas_build_configs_per_s": "1/s",
	"explore.atlas_info_ns":             "ns",
	"explore.atlas_witness_ns":          "ns",
	"explore.atlascache_hit_ns":         "ns",
	"explore.census_initial_ms":         "ms",
	"explore.census_lemma3_ms":          "ms",
	"explore.classify_ms":               "ms",
	"explore.par_configs_per_s":         "1/s",
	"explore.par_speedup":               "x",
	"explore.seq_configs_per_s":         "1/s",
	"explore.successors_ns":             "ns",
	"explore.valency_cache_hit_ratio":   "ratio",
	"model.apply_allocs":                "count",
	"model.apply_ns":                    "ns",
	"model.events_ns":                   "ns",
	"model.intern_fresh_ns":             "ns",
	"model.intern_hit_ns":               "ns",
	"model.key_ns":                      "ns",
	"model.wire_event_ns":               "ns",
	"proc.cpu_ms_per_op":                "ms",
	"proc.gc_pause_ms":                  "ms",
	"proc.peak_rss_mb":                  "MB",
	"serve.boot_ms":                     "ms",
	"serve.bytes_written_per_op":        "B",
	"serve.cache_hit_ratio":             "ratio",
	"serve.cold_ms":                     "ms",
	"serve.hot_ms":                      "ms",
	"serve.http_overhead_ms":            "ms",
	"serve.journal_records_per_op":      "count",
	"serve.rejected":                    "count",
	"serve.store_hits":                  "count",
	"serve.store_misses":                "count",
	"serve.warm_ms":                     "ms",
	"serve.write_syscalls_per_op":       "count",
	"trace.overhead_pct":                "%",
}

// layerMetrics collects the per-layer metrics of one traced run.
type layerMetrics struct {
	values map[string]metric
	// broken lists violated invariants (a re-expanded node, a corrupt
	// artifact, a refused request); any makes the run incorrect.
	broken []string
	// attempted and failed count the ops the probes ran and verified.
	attempted, failed int
	// probeS records how long each probe took.
	probeS []string
}

// set records a metric; its unit comes from perLayerUnits, and a name
// missing there is a bug in the harness.
func (lm *layerMetrics) set(name string, v float64) {
	unit, ok := perLayerUnits[name]
	if !ok {
		panic("bench: per-layer metric " + name + " is not in perLayerUnits")
	}
	lm.values[name] = metric{finite(v), unit}
}

func (lm *layerMetrics) require(ok bool, format string, args ...any) {
	if !ok {
		lm.broken = append(lm.broken, fmt.Sprintf(format, args...))
	}
}

func (lm *layerMetrics) count(p passResult) {
	lm.attempted += len(p.samples)
	lm.failed += p.failures()
}

// perCall times each of n calls of f and returns the durations in ns.
func perCall(n int, f func(i int)) []float64 {
	out := make([]float64, n)
	for i := range out {
		start := time.Now()
		f(i)
		out[i] = float64(time.Since(start))
	}
	return out
}

// timeIt returns f's wall time in ms.
func timeIt(f func()) float64 {
	start := time.Now()
	f()
	return ms(time.Since(start))
}

// medianOf runs f reps times and returns the median of its results.
func medianOf(reps int, f func() float64) float64 {
	xs := make([]float64, reps)
	for i := range xs {
		xs[i] = f()
	}
	return median(xs)
}

// spanMS returns the durations (ms, divided by the span's call count) of
// every span with the given name.
func spanMS(spans []span, name string) []float64 {
	var out []float64
	for _, s := range spans {
		if s.Name == name {
			out = append(out, float64(s.End-s.Start)/1e6/float64(max(s.Calls, 1)))
		}
	}
	return out
}

// probeRoot is the root the micro-probes explore from: a mixed input
// vector, so both decision values are reachable.
func probeRoot(pr model.Protocol) *model.Config {
	in := model.UniformInputs(pr.N(), model.V0)
	in[pr.N()-1] = model.V1
	return model.MustInitial(pr, in)
}

// probeSize scales the micro-probes: full size for a traced run, a sliver
// under -smoke so the test suite can run every probe.
type probeSize struct {
	pairs     int // (configuration, event) pairs per kernel in the model probe
	budget    int // MaxConfigs of the sequential-vs-parallel comparison
	reps      int // repetitions a median is taken over
	protocols int // serve-mixed protocols the atlas and store probes cover
}

func sizeFor(cfg config) probeSize {
	if cfg.smoke {
		return probeSize{pairs: 200, budget: 150, reps: 1, protocols: 1}
	}
	return probeSize{pairs: 5000, budget: 2000, reps: 3, protocols: 4}
}

// probeModel measures model on the first 5 000 (configuration, event) pairs
// in BFS order of each explore-wide kernel.
func probeModel(s scope, size probeSize, lm *layerMetrics) error {
	var applyNS, keyNS, freshNS, hitNS, eventsNS, wireNS, succNS []float64
	var mallocs, applies float64
	for _, k := range exploreKernels {
		pr, err := lookupProtocol(k.name, k.n)
		if err != nil {
			return err
		}
		var cfgs []*model.Config
		pairs := 0
		explore.Explore(pr, probeRoot(pr), explore.Options{Workers: 1}, nil, func(c *model.Config, _ int, _ func() model.Schedule) bool {
			cfgs = append(cfgs, c)
			pairs += len(model.Events(c))
			return pairs >= size.pairs
		})

		_, end := s.beginN("model.Events", len(cfgs))
		events := make([][]model.Event, len(cfgs))
		eventsNS = append(eventsNS, perCall(len(cfgs), func(i int) { events[i] = model.Events(cfgs[i]) })...)
		end()

		type pair struct {
			c *model.Config
			e model.Event
		}
		var ps []pair
		for i, c := range cfgs {
			for _, e := range events[i] {
				ps = append(ps, pair{c, e})
			}
		}
		ps = ps[:min(len(ps), size.pairs)]
		children := make([]*model.Config, len(ps))

		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, end = s.beginN("model.Apply", len(ps))
		applyNS = append(applyNS, perCall(len(ps), func(i int) { children[i] = model.MustApply(pr, ps[i].c, ps[i].e) })...)
		end()
		runtime.ReadMemStats(&after)
		mallocs += float64(after.Mallocs - before.Mallocs)
		applies += float64(len(ps))

		_, end = s.beginN("model.Config.Hash", len(children))
		keyNS = append(keyNS, perCall(len(children), func(i int) { children[i].Hash() })...)
		end()

		it := model.NewInterner()
		fresh := make([]bool, len(children))
		_, end = s.beginN("model.Interner.Intern", 2*len(children))
		first := perCall(len(children), func(i int) { _, fresh[i] = it.Intern(children[i]) })
		hitNS = append(hitNS, perCall(len(children), func(i int) { it.Intern(children[i]) })...)
		end()
		for i, f := range fresh {
			if f {
				freshNS = append(freshNS, first[i])
			}
		}

		var buf []byte
		_, end = s.beginN("model.AppendEvent+ConsumeEvent", len(ps))
		wireNS = append(wireNS, perCall(len(ps), func(i int) {
			buf = model.AppendEvent(buf[:0], ps[i].e)
			if _, _, err := model.ConsumeEvent(buf); err != nil {
				lm.require(false, "model.ConsumeEvent: %v", err)
			}
		})...)
		end()

		var dst []explore.Successor
		_, end = s.beginN("explore.AppendSuccessors", len(cfgs))
		succNS = append(succNS, perCall(len(cfgs), func(i int) { dst = explore.AppendSuccessors(pr, cfgs[i], nil, dst[:0]) })...)
		end()
	}
	lm.set("model.apply_ns", median(applyNS))
	lm.set("model.apply_allocs", mallocs/applies)
	lm.set("model.key_ns", median(keyNS))
	lm.set("model.intern_fresh_ns", median(freshNS))
	lm.set("model.intern_hit_ns", median(hitNS))
	lm.set("model.events_ns", median(eventsNS))
	lm.set("model.wire_event_ns", median(wireNS))
	lm.set("explore.successors_ns", median(succNS))
	return nil
}

// probeExplore measures the in-process engines: sequential against parallel
// forward reachability on the explore-wide kernels, and the atlas (build,
// reads, the cache in front of it) on the serve-mixed protocols.
func probeExplore(s scope, size probeSize, lm *layerMetrics) error {
	budget, reps := size.budget, size.reps
	var seqMS, parMS, configs float64
	for _, k := range exploreKernels {
		pr, err := lookupProtocol(k.name, k.n)
		if err != nil {
			return err
		}
		root := probeRoot(pr)
		run := func(name string, workers int) float64 {
			return medianOf(reps, func() float64 {
				_, end := s.begin(name)
				defer end()
				return timeIt(func() { explore.Explore(pr, root, explore.Options{MaxConfigs: budget, Workers: workers}, nil, nil) })
			})
		}
		seqMS += run("explore.Explore(workers=1)", 1)
		parMS += run("explore.Explore(workers=nproc)", runtime.GOMAXPROCS(0))
		configs += float64(budget)
	}
	lm.set("explore.seq_configs_per_s", configs/seqMS*1000)
	lm.set("explore.par_configs_per_s", configs/parMS*1000)
	lm.set("explore.par_speedup", seqMS/parMS)

	var buildMS, nodes, edges float64
	var infoNS, witnessNS, hitNS []float64
	opt := explore.Options{MaxConfigs: serveBudget}
	for _, name := range serveProtocols[:size.protocols] {
		pr, err := lookupProtocol(name, 3)
		if err != nil {
			return err
		}
		root := probeRoot(pr)
		var atlas *explore.Atlas
		buildMS += medianOf(reps, func() float64 {
			_, end := s.begin("explore.BuildAtlas")
			defer end()
			return timeIt(func() { atlas, _ = explore.BuildAtlas(pr, root, opt) })
		})
		if atlas == nil {
			return fmt.Errorf("BuildAtlas(%s) refused at budget %d", name, serveBudget)
		}
		nodes += float64(atlas.Len())
		edges += float64(atlas.Edges())

		cfgs := make([]*model.Config, atlas.Len())
		for i := range cfgs {
			cfgs[i] = atlas.Config(int32(i))
		}
		_, end := s.beginN("explore.Atlas.Info", len(cfgs))
		infoNS = append(infoNS, perCall(len(cfgs), func(i int) { atlas.Info(cfgs[i]) })...)
		end()
		_, end = s.beginN("explore.Atlas.Witness", len(cfgs))
		witnessNS = append(witnessNS, perCall(len(cfgs), func(i int) { atlas.Witness(int32(i), model.Value(i%2)) })...)
		end()

		ac := explore.NewAtlasCache()
		explore.ClassifyRootCached(pr, root, opt, ac)
		_, end = s.beginN("explore.ClassifyRootCached(hit)", 1000)
		hitNS = append(hitNS, perCall(1000, func(int) { explore.ClassifyRootCached(pr, root, opt, ac) })...)
		end()
	}
	lm.set("explore.admit_ratio", (nodes-float64(size.protocols))/edges)
	lm.set("explore.atlas_build_configs_per_s", nodes/buildMS*1000)
	lm.set("explore.atlas_info_ns", median(infoNS))
	lm.set("explore.atlas_witness_ns", median(witnessNS))
	lm.set("explore.atlascache_hit_ns", median(hitNS))

	// The fallback when an atlas is refused: one budgeted forward search per
	// configuration.
	pr, err := lookupProtocol("paxos", 3)
	if err != nil {
		return err
	}
	var frontier []*model.Config
	explore.Explore(pr, probeRoot(pr), explore.Options{Workers: 1}, nil, func(c *model.Config, _ int, _ func() model.Schedule) bool {
		frontier = append(frontier, c)
		return len(frontier) >= 24
	})
	_, end := s.beginN("explore.Classify", len(frontier))
	classifyNS := perCall(len(frontier), func(i int) { explore.Classify(pr, frontier[i], explore.Options{MaxConfigs: 400}) })
	end()
	lm.set("explore.classify_ms", median(classifyNS)/1e6)
	return nil
}

// probeLemma runs one traced pass of lemma-pipeline and reads the census and
// adversary figures off its spans; the extension and cache figures need
// calls the pipeline does not make, so they are made here.
func probeLemma(tr *tracer, s scope, cfg config, lm *layerMetrics) error {
	w, err := newLemmaPipeline(cfg)
	if err != nil {
		return err
	}
	from := len(tr.spans)
	lm.count(w.pass(tr))
	spans := tr.spans[from:]
	lm.set("explore.census_initial_ms", median(spanMS(spans, "explore.CensusInitial")))
	lm.set("explore.census_lemma3_ms", median(spanMS(spans, "explore.CensusLemma3")))
	lm.set("adversary.stage_ms", median(spanMS(spans, "adversary.RunFromInputs")))
	lm.set("adversary.verify_ms", median(spanMS(spans, "adversary.Verify")))

	protos, err := lemmaProtos(cfg.smoke)
	if err != nil {
		return err
	}
	// Two further stages on top of each pipeline run: a stage's cost grows
	// with the run's length, so a longer extension would measure depth.
	const extendStages = 2
	var hits, misses int
	var extendMS []float64
	var examined, stages float64
	for _, p := range protos {
		if !p.unbounded {
			c, _, err := pipelineRoot(s, p, 0)
			if err != nil {
				return err
			}
			opt := p.options(0)
			cache := explore.NewCache(p.pr, opt)
			for _, e := range model.Events(c) {
				if _, err := explore.CensusLemma3(p.pr, c, e, opt, cache); err != nil {
					return err
				}
			}
			h, m := cache.Stats()
			hits, misses = hits+h, misses+m
		}
		for _, digits := range p.advInputs {
			in, err := parseInputs(digits)
			if err != nil {
				return err
			}
			adv := adversary.New(p.pr, adversaryOptions(p, p.stages[0], 0))
			res, err := adv.RunFromInputs(in)
			if err != nil {
				return err
			}
			_, end := s.beginN("adversary.Extend", extendStages)
			extendMS = append(extendMS, timeIt(func() { res, err = adv.Extend(res, extendStages) })/extendStages)
			end()
			if err != nil {
				return err
			}
			for _, st := range res.Stages {
				examined += float64(st.Examined)
				stages++
			}
		}
	}
	lm.set("explore.valency_cache_hit_ratio", float64(hits)/float64(max(hits+misses, 1)))
	lm.set("adversary.extend_stage_ms", median(extendMS))
	lm.set("adversary.examined_per_stage", examined/max(stages, 1))
	return nil
}

// probeCluster runs one traced pass of cluster-recover for the fault
// figures, then clean runs over a counting transport for the wire figures.
func probeCluster(tr *tracer, s scope, cfg config, dir string, lm *layerMetrics) error {
	wl, err := newClusterRecover(cfg)
	if err != nil {
		return err
	}
	w := wl.(*clusterRecover)
	if err := os.Mkdir(dir, 0o755); err != nil {
		return err
	}
	from := len(tr.spans)
	if err := w.boot(dir); err != nil {
		return err
	}
	p := w.pass(tr)
	w.shutdown()
	lm.count(p)
	med, _ := classMedians([]passResult{p})
	lm.set("distexplore.kill_extra_ms", med[roleKill]-med[roleClean])
	lm.set("distexplore.resume_extra_ms", med[roleResume]-med[roleClean])
	lm.set("distexplore.live_expanded_ratio", float64(w.resumed.LiveExpanded)/float64(max(w.resumed.ExpandedNodes, 1)))
	lm.set("distexplore.checkpoints_per_run", float64(w.resumed.Checkpoints)/float64(max(w.resumes, 1)))
	lm.set("atlasstore.corrupt", float64(w.cks.Stats().Corrupt))
	lm.require(w.cks.Stats().Corrupt == 0, "%d corrupt checkpoints", w.cks.Stats().Corrupt)

	// Wire figures: the first root of each kernel, clean, at R = 2 and R = 1,
	// against the sequential in-process engine on the same task.
	const reps = 3
	var tasks []clusterOp
	seen := map[string]bool{}
	for _, op := range w.ops {
		if k := op.task.Protocol + fmt.Sprint(op.task.N); !seen[k] {
			seen[k] = true
			tasks = append(tasks, op)
		}
	}
	sort.Slice(tasks, func(i, j int) bool { return tasks[i].id < tasks[j].id })
	runAll := func(replicas int) (wallMS, configs, levels float64, ct *countingTransport, err error) {
		ct = &countingTransport{Transport: distexplore.NewLoopback()}
		c, err := startCluster(s, ct)
		if err != nil {
			return 0, 0, 0, nil, err
		}
		defer c.close()
		for rep := 0; rep < reps; rep++ {
			for _, op := range tasks {
				t := op.task
				t.Replicas = replicas
				depth := 0
				_, end := s.begin(fmt.Sprintf("distexplore.Cluster.Explore(R=%d)", replicas))
				start := time.Now()
				_, visited, err := c.cl.Explore(t, func(_ *model.Config, d int, _ func() model.Schedule) bool {
					depth = max(depth, d)
					return false
				})
				wallMS += ms(time.Since(start))
				end()
				if err != nil {
					return 0, 0, 0, nil, err
				}
				configs += float64(visited)
				levels += float64(depth + 1)
			}
		}
		return wallMS, configs, levels, ct, nil
	}
	wall2, configs, levels, ct, err := runAll(clusterReplicas)
	if err != nil {
		return err
	}
	wall1, _, _, _, err := runAll(1)
	if err != nil {
		return err
	}
	var seqMS float64
	for rep := 0; rep < reps; rep++ {
		for _, op := range tasks {
			root := model.MustInitial(op.pr, op.task.Inputs)
			opt := op.task.Options
			opt.Workers = 1
			seqMS += timeIt(func() { explore.Explore(op.pr, root, opt, nil, nil) })
		}
	}
	lm.set("distexplore.dial_ms", median(spanMS(tr.spans[from:], "distexplore.Dial")))
	lm.set("distexplore.clean_configs_per_s", configs/wall2*1000)
	lm.set("distexplore.overhead_x", wall2/seqMS)
	lm.set("distexplore.replication_x", wall2/wall1)
	lm.set("distexplore.frames_per_level", float64(ct.framesOut.Load())/levels)
	lm.set("distexplore.bytes_per_config", float64(ct.bytesIn.Load()+ct.bytesOut.Load())/configs)
	lm.set("distexplore.rpc_wait_share", float64(ct.readWaitNS.Load())/1e6/(wall2*float64(max(ct.conns.Load(), 1))))
	return nil
}

// probeStore measures atlasstore directly: cold build-and-persist, load,
// deepen-from-frontier, and the checkpoint codec.
func probeStore(s scope, size probeSize, dir string, lm *layerMetrics) error {
	reps, protocols := size.reps, float64(size.protocols)
	opt := explore.Options{MaxConfigs: serveBudget}
	var bareMS, coldMS, loadMS, nodes, bytes float64
	var corrupt int64
	for i, name := range serveProtocols[:size.protocols] {
		pr, err := lookupProtocol(name, 3)
		if err != nil {
			return err
		}
		root := probeRoot(pr)
		bareMS += medianOf(reps, func() float64 { return timeIt(func() { explore.BuildAtlas(pr, root, opt) }) })
		var lastDir string
		var atlasLen int
		rep := 0
		coldMS += medianOf(reps, func() float64 {
			rep++
			lastDir = filepath.Join(dir, fmt.Sprintf("store-%d-%d", i, rep))
			st, err := atlasstore.Open(lastDir)
			if err != nil {
				lm.require(false, "atlasstore.Open: %v", err)
				return 0
			}
			st.SetLog(nil)
			_, end := s.begin("atlasstore.Store.GetAtlas(cold)")
			defer end()
			return timeIt(func() {
				a, ok := st.GetAtlas(pr, root, opt)
				lm.require(ok, "cold GetAtlas(%s) refused", name)
				if ok {
					atlasLen = a.Len()
				}
				corrupt += st.Stats().Corrupt
			})
		})
		nodes += float64(atlasLen)
		bytes += dirBytes(lastDir)
		loadMS += medianOf(reps, func() float64 {
			st, err := atlasstore.Open(lastDir)
			if err != nil {
				lm.require(false, "atlasstore.Open: %v", err)
				return 0
			}
			st.SetLog(nil)
			_, end := s.begin("atlasstore.Store.GetAtlas(load)")
			defer end()
			return timeIt(func() {
				_, ok := st.GetAtlas(pr, root, opt)
				lm.require(ok && st.Stats().Hits == 1, "warm GetAtlas(%s) did not hit the store", name)
				corrupt += st.Stats().Corrupt
			})
		})
	}
	lm.set("atlasstore.cold_ms", coldMS/protocols)
	lm.set("atlasstore.persist_overhead_x", coldMS/bareMS)
	lm.set("atlasstore.bytes_per_config", bytes/nodes)
	lm.set("atlasstore.load_ms", loadMS/protocols)
	lm.set("atlasstore.load_speedup_x", bareMS/loadMS)
	lm.require(corrupt == 0, "%d corrupt atlas artifacts", corrupt)

	// Deepen: persist a truncated exploration, then ask for a deeper one; the
	// second call must resume from the stored frontier and re-expand nothing.
	pr, err := lookupProtocol("paxos", 3)
	if err != nil {
		return err
	}
	root := probeRoot(pr)
	st, err := atlasstore.Open(filepath.Join(dir, "deepen"))
	if err != nil {
		return err
	}
	st.SetLog(nil)
	_, first, err := st.Deepen(pr, root, explore.Options{MaxConfigs: 500})
	if err != nil {
		return err
	}
	var second atlasstore.DeepenStats
	var snap *explore.AtlasSnapshot
	_, end := s.begin("atlasstore.Store.Deepen")
	deepenMS := timeIt(func() { snap, second, err = st.Deepen(pr, root, explore.Options{MaxConfigs: 2500}) })
	end()
	if err != nil {
		return err
	}
	reexpanded := second.NewlyExpanded - (second.Expanded - first.Expanded)
	lm.set("atlasstore.deepen_configs_per_s", float64(second.Nodes-first.Nodes)/deepenMS*1000)
	lm.set("atlasstore.deepen_reexpanded", float64(reexpanded))
	lm.require(second.Resumed && reexpanded == 0, "Deepen re-expanded %d nodes (resumed=%v)", reexpanded, second.Resumed)

	// Checkpoint codec: the deepened node table cut at its last complete
	// level boundary is exactly what the coordinator saves.
	v := snap.Len()
	start := v - 1
	for start > 0 && snap.Depth[start-1] == snap.Depth[v-1] {
		start--
	}
	ck := &atlasstore.RunCheckpoint{
		Snap: &explore.AtlasSnapshot{
			Depth: snap.Depth[:v], Parent: snap.Parent[:v], ParentVia: snap.ParentVia[:v],
			SuccStart: []int32{0}, Keys: snap.Keys[:v],
		},
		Start: start, Expanded: start,
	}
	key := atlasstore.RunKey{Protocol: "paxos", N: 3, RootKey: root.KeyBytes(), MaxConfigs: 2500}
	cks, err := atlasstore.OpenCheckpoints(filepath.Join(dir, "ckpt"))
	if err != nil {
		return err
	}
	cks.SetLog(nil)
	lm.set("atlasstore.checkpoint_save_ms", medianOf(reps, func() float64 {
		_, end := s.begin("atlasstore.CheckpointStore.Save")
		defer end()
		return timeIt(func() { cks.Save(key, ck) })
	}))
	lm.set("atlasstore.checkpoint_load_ms", medianOf(reps, func() float64 {
		_, end := s.begin("atlasstore.CheckpointStore.Load")
		defer end()
		return timeIt(func() { lm.require(cks.Load(key) != nil, "checkpoint did not load back") })
	}))
	lm.require(cks.Stats().Corrupt == 0, "%d corrupt probe checkpoints", cks.Stats().Corrupt)
	return nil
}

// dirBytes sums the sizes of the regular files directly under dir.
func dirBytes(dir string) float64 {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return 0
	}
	var total float64
	for _, e := range entries {
		if info, err := e.Info(); err == nil && info.Mode().IsRegular() {
			total += float64(info.Size())
		}
	}
	return total
}

// probeServe runs one traced pass of serve-mixed: class medians from its
// samples, counters scraped from each server's /metrics page, write
// accounting from /proc/self/io around the pass.
func probeServe(tr *tracer, cfg config, dir string, lm *layerMetrics) error {
	wl, err := newServeMixed(cfg)
	if err != nil {
		return err
	}
	w := wl.(*serveMixed)
	if err := os.Mkdir(dir, 0o755); err != nil {
		return err
	}
	if err := w.boot(dir); err != nil {
		return err
	}
	from := len(tr.spans)
	ioBefore := readProcIO()
	p := w.pass(tr)
	ioAfter := readProcIO()
	w.shutdown()
	lm.count(p)
	ops := float64(len(p.samples))
	med, _ := classMedians([]passResult{p})
	lm.set("serve.hot_ms", med["hot"])
	lm.set("serve.warm_ms", med["warm"])
	lm.set("serve.cold_ms", med["cold"])
	lm.set("serve.http_overhead_ms", med["hot"]-lm.values["explore.atlascache_hit_ns"].Value/1e6)
	lm.set("serve.boot_ms", median(spanMS(tr.spans[from:], "serve.New(populated)")))

	c := w.scraped
	requests := float64(max(w.requests, 1))
	lookups := c.sum("flpserve_atlas_cache_lookups_total")
	rejected := c.sum("flpserve_http_requests_total", `code="503"`)
	lm.set("serve.journal_records_per_op", c.sum("flpserve_journal_records_total")/requests)
	lm.set("serve.cache_hit_ratio", c.sum("flpserve_atlas_cache_lookups_total", `outcome="hit"`)/max(lookups, 1))
	lm.set("serve.store_hits", c.sum("flpserve_atlas_store_ops_total", `outcome="hit"`))
	lm.set("serve.store_misses", c.sum("flpserve_atlas_store_ops_total", `outcome="miss"`))
	lm.set("serve.rejected", rejected)
	lm.set("serve.write_syscalls_per_op", (ioAfter.syscalls-ioBefore.syscalls)/ops)
	lm.set("serve.bytes_written_per_op", (ioAfter.bytes-ioBefore.bytes)/ops)
	lm.require(w.requests == len(p.samples), "scraped %d requests of %d", w.requests, len(p.samples))
	lm.require(rejected == 0, "%v requests refused with 503", rejected)
	lm.require(c.sum("flpserve_atlas_store_ops_total", `outcome="corrupt"`) == 0, "server reported corrupt artifacts")
	return nil
}

// probeLayers runs every probe.
func probeLayers(tr *tracer, cfg config, stateDir string, lm *layerMetrics) error {
	s, end := scope{tr: tr}.begin("bench.probes")
	defer end()
	size := sizeFor(cfg)
	steps := []struct {
		name string
		run  func() error
	}{
		{"model", func() error { return probeModel(s, size, lm) }},
		{"explore", func() error { return probeExplore(s, size, lm) }},
		{"lemma", func() error { return probeLemma(tr, s, cfg, lm) }},
		{"cluster", func() error { return probeCluster(tr, s, cfg, filepath.Join(stateDir, "probe-cluster"), lm) }},
		{"store", func() error { return probeStore(s, size, filepath.Join(stateDir, "probe-store"), lm) }},
		{"serve", func() error { return probeServe(tr, cfg, filepath.Join(stateDir, "probe-serve"), lm) }},
	}
	for _, st := range steps {
		start := time.Now()
		if err := st.run(); err != nil {
			return fmt.Errorf("%s probe: %w", st.name, err)
		}
		lm.probeS = append(lm.probeS, fmt.Sprintf("%s %.2fs", st.name, time.Since(start).Seconds()))
	}
	return nil
}
