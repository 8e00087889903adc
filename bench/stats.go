package main

import (
	"math"
	"sort"
	"time"
)

// sample is one op's outcome in one pass. A failed op has no meaningful
// latency: it enters every percentile as +Inf, so a schedule that fails
// more than 5 % of its ops cannot report a finite p95.
type sample struct {
	class  string
	ms     float64
	failed bool
}

// passResult is one pass over a workload's fixed op schedule.
type passResult struct {
	wall    time.Duration
	samples []sample
}

// latencies returns the pass's op latencies in ascending order, failed ops
// as +Inf.
func (p passResult) latencies() []float64 {
	out := make([]float64, len(p.samples))
	for i, s := range p.samples {
		out[i] = s.ms
		if s.failed {
			out[i] = math.Inf(1)
		}
	}
	sort.Float64s(out)
	return out
}

// failures counts the pass's failed ops.
func (p passResult) failures() int {
	n := 0
	for _, s := range p.samples {
		if s.failed {
			n++
		}
	}
	return n
}

// quantile is the q-quantile (0 ≤ q ≤ 1) of an ascending slice, linearly
// interpolated between the two nearest ranks. An +Inf neighbour makes the
// result +Inf rather than NaN.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	pos := q * float64(len(sorted)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if lo == hi || math.IsInf(sorted[hi], 1) {
		return sorted[hi]
	}
	return sorted[lo] + (pos-float64(lo))*(sorted[hi]-sorted[lo])
}

// quantileOf sorts a copy of xs and returns its q-quantile.
func quantileOf(xs []float64, q float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return quantile(s, q)
}

func median(xs []float64) float64 { return quantileOf(xs, 0.5) }

// quartiles returns the first quartile, median and third quartile of xs.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	return quantileOf(xs, 0.25), quantileOf(xs, 0.5), quantileOf(xs, 0.75)
}

// steadyQ is the quantile across a run's passes at which every timing is
// read. Passes are identical work and interference on a shared host is
// one-sided — a neighbour only ever takes cycles away — so the program's own
// cost is a low order statistic of the repeats, not their middle: a burst
// that reaches more than half the passes moves their median, and moved the
// per-pass p95 (which needs only three slow ops of 48 to rise) by 20 % in
// runs of identical code. The lower quartile keeps two or more repeats below
// it at nine passes, ignores bursts that spare a quarter of an op's repeats,
// and depends less on the pass count than the minimum does.
const steadyQ = 0.25

func steadyOf(xs []float64) float64 { return quantileOf(xs, steadyQ) }

// steadyOps folds a run's passes into one sample per op of the schedule:
// position i of every pass is the same op, and its steady latency is the
// lower quartile of its repeats. An op that failed in any pass is failed.
func steadyOps(passes []passResult) []sample {
	if len(passes) == 0 {
		return nil
	}
	ops := make([]sample, len(passes[0].samples))
	repeats := make([]float64, len(passes))
	for i := range ops {
		ops[i].class = passes[0].samples[i].class
		for j, p := range passes {
			repeats[j] = p.samples[i].ms
			ops[i].failed = ops[i].failed || p.samples[i].failed
		}
		ops[i].ms = steadyOf(repeats)
	}
	return ops
}

// endToEnd holds the five end-to-end metrics of one run plus the counts
// printed beside them.
type endToEnd struct {
	setupS       float64
	opsPerS      float64
	p50ms, p95ms float64
	allocMBPerOp float64

	passes    int
	opsInPass int
	attempted int
	failed    int
	// setupFailed counts ops that failed in the untimed verifying passes.
	setupFailed int
	// refMS is the reference kernel's steady time over the run (see
	// reference.go); 0 when none was timed.
	refMS float64
}

// slowdown is how much slower than its reference state the machine ran
// during the run, as the reference kernel saw it: 1 when none was timed.
func (e endToEnd) slowdown() float64 {
	if !(e.refMS > 0) {
		return 1
	}
	return e.refMS / referenceNominalMS
}

// atReferenceSpeed returns e with its timings as they would read on the
// machine in its reference state.
func (e endToEnd) atReferenceSpeed() endToEnd {
	f := e.slowdown()
	e.setupS /= f
	e.opsPerS *= f
	e.p50ms /= f
	e.p95ms /= f
	return e
}

// summarize folds the timed passes into the end-to-end metrics. Throughput
// is the schedule's ops over the steady pass wall time; the latency
// percentiles are taken over the schedule's ops, each at its steady latency
// across passes (see steadyQ).
func summarize(setups []float64, passes []passResult, allocBytes uint64) endToEnd {
	e := endToEnd{setupS: median(setups), passes: len(passes)}
	if len(passes) == 0 {
		return e
	}
	var walls []float64
	for _, p := range passes {
		walls = append(walls, p.wall.Seconds())
		e.attempted += len(p.samples)
		e.failed += p.failures()
	}
	lat := passResult{samples: steadyOps(passes)}.latencies()
	e.opsInPass = len(lat)
	e.opsPerS = float64(e.opsInPass) / steadyOf(walls)
	e.p50ms = quantile(lat, 0.50)
	e.p95ms = quantile(lat, 0.95)
	e.allocMBPerOp = float64(allocBytes) / 1e6 / float64(e.attempted)
	return e
}

// classMedians pools every pass's samples by op class and returns each
// class's median latency and sample count.
func classMedians(passes []passResult) (med map[string]float64, n map[string]int) {
	by := map[string][]float64{}
	for _, p := range passes {
		for _, s := range p.samples {
			if !s.failed {
				by[s.class] = append(by[s.class], s.ms)
			}
		}
	}
	med, n = map[string]float64{}, map[string]int{}
	for c, xs := range by {
		med[c], n[c] = median(xs), len(xs)
	}
	return med, n
}

// rankRatio is the percentile rule's statistic: the steady latency at rank
// (p+3) % over that at rank (p−3) % of the schedule's ops. A value near 1
// means p sits inside one op class; a large one means a class boundary lies
// under it, where a small shift in the mix moves the percentile by the gap
// between classes.
func rankRatio(ops []sample, p float64) float64 {
	lat := passResult{samples: ops}.latencies()
	return quantile(lat, p+0.03) / quantile(lat, p-0.03)
}

// classAt names the op class most of the schedule's ops between ranks lo
// and hi (fractions, by steady latency) belong to, and the share of them
// that do: 1 means the stretch is one class, less means a boundary (or
// another class's outliers) sits in it.
func classAt(ops []sample, lo, hi float64) (class string, share float64) {
	if len(ops) == 0 {
		return "", 0
	}
	all := append([]sample(nil), ops...)
	for i := range all {
		if all[i].failed {
			all[i].ms = math.Inf(1)
		}
	}
	sort.Slice(all, func(i, j int) bool { return all[i].ms < all[j].ms })
	first := int(lo * float64(len(all)-1))
	last := int(math.Ceil(hi * float64(len(all)-1)))
	counts := map[string]int{}
	for _, s := range all[first : last+1] {
		counts[s.class]++
		if counts[s.class] > counts[class] {
			class = s.class
		}
	}
	return class, float64(counts[class]) / float64(last-first+1)
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }
