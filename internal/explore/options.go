package explore

import "runtime"

// Options bound an exploration. The zero value is usable: defaults are
// applied by the entry points.
type Options struct {
	// MaxConfigs is the maximum number of distinct configurations to
	// visit in one exploration. When the bound is hit the exploration
	// reports Complete=false and results become one-sided (bivalence
	// certificates remain exact; univalence claims do not). Default 200000.
	MaxConfigs int
	// Workers is the number of goroutines working *within one process*:
	// the caller plus up to min(Workers, GOMAXPROCS)−1 helpers, goroutines
	// the package keeps for every call, which stay with a call that finds
	// them idle until it ends; a larger Workers only shapes chunking. 0
	// (the default) means runtime.GOMAXPROCS(0); 1 or a negative value
	// works inline on the caller. One exploration spends them on the nodes
	// of each level. A call over many roots — Census and everything built
	// on it (CensusInitial, FindBivalentInitial), and
	// CheckPartialCorrectness — spends them on roots instead: each root is
	// explored inline (Workers: 1) beside the others, the results are
	// consumed in AllInputs order, and up to Workers−1 roots past a stop
	// are explored and dropped. With one worker, or a single root, each
	// root's exploration keeps the workers for its levels. Any worker
	// count produces byte-identical results — same visit order, same
	// counts, same witness schedules — because successors are merged into
	// the frontier in canonical order by a single coordinator, and roots
	// are consumed in order by the caller (see doc.go).
	//
	// Workers is orthogonal to the distributed engine's sharding: package
	// distexplore partitions the visited set by configuration hash range
	// into Shards ranges served by worker *processes*, and each of those
	// processes expands its owned frontier sequentially (the distributed
	// level exchange, not goroutine count, is its unit of parallelism).
	// Every (Workers × Shards × worker-process) combination is
	// byte-identical to Workers=1 here; choose Workers for one machine,
	// Shards and worker processes for many. This paragraph is the single
	// home of that contract — distexplore.Task.Options refers back to it.
	Workers int
}

// DefaultMaxConfigs is the per-exploration budget applied when
// Options.MaxConfigs is zero.
const DefaultMaxConfigs = 200000

// Normalized returns o with the engine-independent field defaulted:
// MaxConfigs. Engines outside this package (distexplore) apply it so that
// bound handling cannot drift between engines; in-process entry points get
// it via withDefaults.
func (o Options) Normalized() Options {
	if o.MaxConfigs <= 0 {
		o.MaxConfigs = DefaultMaxConfigs
	}
	return o
}

func (o Options) withDefaults() Options {
	o = o.Normalized()
	if o.Workers == 0 {
		o.Workers = runtime.GOMAXPROCS(0)
	}
	return o
}
