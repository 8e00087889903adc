package main

import (
	"fmt"
	"hash/fnv"
	"math/rand"
	"os"
	"sort"
	"time"

	"github.com/flpsim/flp/internal/explore"
	"github.com/flpsim/flp/internal/model"
	"github.com/flpsim/flp/internal/protocols"
)

// config is what a workload is built from. The seed orders the ops of the
// workload's fixed pool (and deals the fault and class roles where a
// workload has them); the pool itself never varies, so every seed measures
// the same work and golden.json covers every op any seed can produce.
type config struct {
	seed  int64
	smoke bool // one pass over tiny budgets, for the test suite
	// golden maps "<workload>/<op id>" to the op's answer digest. Nil while
	// minting: ops then pass unchecked.
	golden map[string]string
}

// workload is one set of inputs the benchmark runs. A workload value holds
// the protocols and the op schedule (built by its constructor, which is the
// "build protocols" step of set-up); boot brings up whatever outlives an op.
type workload interface {
	// boot starts long-lived state (cluster, server) on an empty directory.
	boot(dir string) error
	// pass runs the whole schedule once and verifies every answer.
	pass(tr *tracer) passResult
	// shutdown stops everything boot started and waits for it.
	shutdown()
	// oracle answers the whole pool through the sequential engine alone;
	// -mint writes its digests to golden.json.
	oracle() (map[string]string, error)
}

type workloadInfo struct {
	name string
	why  string
	make func(cfg config) (workload, error)
}

var workloads = []workloadInfo{
	{"explore-wide", "forward reachability on wide frontiers: model (Apply, key, intern) and the explore level loop do all the work; atlas, store, cluster and service do none", newExploreWide},
	{"lemma-pipeline", "the paper's pipeline step by step on many small graphs: per-exploration set-up, backward passes, atlas reads, valency caches and the only adversary runs", newLemmaPipeline},
	{"cluster-recover", "distexplore over loopback with worker kills and coordinator crash+resume: wire encode, per-level RPC, replication, failover and checkpoint restore", newClusterRecover},
	{"serve-mixed", "flpserve over real HTTP on a fresh dir, 10% cold / 10% warm / 80% hot: serve, atlasstore writes and reads, and the shared atlas cache", newServeMixed},
}

func findWorkload(name string) (workloadInfo, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workloadInfo{}, false
}

// verifier checks op answers against golden.json.
type verifier struct {
	workload string
	golden   map[string]string
}

// ok reports whether an op succeeded: no error and, unless minting, the
// digest golden.json holds for it.
func (v verifier) ok(id, digest string, err error) bool {
	if err != nil {
		fmt.Fprintf(os.Stderr, "%s: %s: %v\n", v.workload, id, err)
		return false
	}
	if v.golden == nil {
		return true
	}
	want, known := v.golden[v.workload+"/"+id]
	if want != digest {
		fmt.Fprintf(os.Stderr, "%s: %s: answer digest %s, golden.json has %q (known op: %v)\n", v.workload, id, digest, want, known)
	}
	return want == digest
}

// digestOf hashes an answer's printed fields. fmt prints maps in key order,
// so the result is deterministic for the value types used here.
func digestOf(parts ...any) string {
	h := fnv.New64a()
	fmt.Fprintln(h, parts...)
	return fmt.Sprintf("%016x", h.Sum64())
}

// visitSum returns a visit callback folding an order-sensitive checksum of
// every (configuration, depth) visited, and the function reading it. Any
// change in visit order, set or depth changes the sum.
func visitSum() (explore.Visit, func() uint64) {
	const prime = 1099511628211
	h := uint64(14695981039346656037)
	visit := func(cfg *model.Config, depth int, _ func() model.Schedule) bool {
		h = (h ^ cfg.Hash()) * prime
		h = (h ^ uint64(depth)) * prime
		return false
	}
	return visit, func() uint64 { return h }
}

// shuffled returns the permutation of 0..n-1 the seed selects.
func shuffled(seed int64, n int) []int {
	return rand.New(rand.NewSource(seed)).Perm(n)
}

// lookupProtocol resolves a registry or gen: name exactly as the CLIs do.
func lookupProtocol(name string, n int) (model.Protocol, error) {
	f, ok := protocols.Lookup(name)
	if !ok {
		return nil, fmt.Errorf("unknown protocol %q", name)
	}
	return f(n)
}

// opFunc is one op of a schedule: its id in golden.json, its class, and the
// call that answers it and digests the answer.
type opFunc func(i int) (id, class string, run func(s scope) (string, error))

// sequentialPass runs ops 0..n-1 one after another, as one client would,
// verifying each answer.
func (v verifier) sequentialPass(tr *tracer, n int, op opFunc) passResult {
	start := time.Now()
	res := passResult{samples: make([]sample, 0, n)}
	for i := 0; i < n; i++ {
		id, class, run := op(i)
		res.samples = append(res.samples, timeOp(tr, class, func(s scope) bool {
			digest, err := run(s)
			return v.ok(id, digest, err)
		}))
	}
	res.wall = time.Since(start)
	return res
}

// timeOp runs one op under its span and returns its sample.
func timeOp(tr *tracer, class string, run func(s scope) bool) sample {
	start := time.Now()
	s, end := tr.beginOp("op." + class)
	ok := run(s)
	end()
	return sample{class: class, ms: ms(time.Since(start)), failed: !ok}
}

// sortedKeys returns m's keys in ascending order.
func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
