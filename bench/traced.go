package main

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"
)

// tracedRun is the run that yields per-layer numbers; end-to-end metrics
// never come from it. It runs every layer probe under spans, then the named
// workload as alternating untraced and traced passes — the process figures
// come from those passes, and the gap between the two kinds is the tracing
// overhead. Spans stay in memory until the run ends.
func tracedRun(info workloadInfo, cfg config, env envStamp, stateDir string, seconds float64, spanFile string, stdout io.Writer) (result, error) {
	start := time.Now()
	tr := newTracer()
	lm := &layerMetrics{values: map[string]metric{}}
	if err := probeLayers(tr, cfg, stateDir, lm); err != nil {
		return result{}, err
	}
	probeSpans := len(tr.spans)

	setupFailed := 0
	w, err := setUp(info, cfg, stateDir, 0, &setupFailed)
	if err != nil {
		return result{}, err
	}
	defer w.shutdown()
	var plain, traced []passResult
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	cpuBefore := readUsage()
	window := time.Duration(seconds * float64(time.Second))
	for len(traced) == 0 || (!cfg.smoke && (len(traced) < 2 || time.Since(start) < window)) {
		plain = append(plain, w.pass(nil))
		traced = append(traced, w.pass(tr))
	}
	cpuAfter := readUsage()
	runtime.ReadMemStats(&after)

	ops := 0
	for _, p := range append(plain, traced...) {
		lm.count(p)
		ops += len(p.samples)
	}
	lm.failed += setupFailed
	plainE := summarize(nil, plain, 0)
	tracedE := summarize(nil, traced, 0)
	lm.set("proc.cpu_ms_per_op", ms(cpuAfter.cpu-cpuBefore.cpu)/float64(ops))
	lm.set("proc.peak_rss_mb", cpuAfter.peakRSSMB)
	lm.set("proc.gc_pause_ms", float64(after.PauseTotalNs-before.PauseTotalNs)/1e6/float64(ops))
	lm.set("trace.overhead_pct", 100*(plainE.opsPerS-tracedE.opsPerS)/plainE.opsPerS)

	if err := os.MkdirAll(filepath.Dir(spanFile), 0o755); err != nil {
		return result{}, err
	}
	if err := writeSpans(spanFile, env, tr.spans); err != nil {
		return result{}, err
	}

	fmt.Fprintf(stdout, "traced run: %d probe spans, %d untraced + %d traced passes x %d ops of %s; spans written to %s\n",
		probeSpans, len(plain), len(traced), tracedE.opsInPass, info.name, spanFile)
	fmt.Fprintf(stdout, "probes: %s\n", strings.Join(lm.probeS, ", "))
	fmt.Fprintf(stdout, "untraced %.4f ops/s, traced %.4f ops/s\n", plainE.opsPerS, tracedE.opsPerS)
	fmt.Fprintf(stdout, "\nlayer table of the %s passes (self = span minus the part its child spans cover):\n", info.name)
	fmt.Fprintf(stdout, "  %-44s %8s %8s %12s %12s\n", "span", "spans", "calls", "total ms", "self ms")
	rows := layerTable(tr.spans[probeSpans:])
	for _, r := range rows {
		fmt.Fprintf(stdout, "  %-44s %8d %8d %12.3f %12.3f\n", r.Name, r.Spans, r.Calls, r.TotalMS, r.SelfMS)
	}
	self := selfByLayer(rows)
	for _, layer := range sortedKeys(self) {
		fmt.Fprintf(stdout, "  layer %-12s self %12.3f ms\n", layer, self[layer])
	}
	fmt.Fprintln(stdout, "\nper-layer metrics:")
	for _, name := range sortedKeys(lm.values) {
		fmt.Fprintf(stdout, "  %-36s %16.4f %s\n", name, lm.values[name].Value, lm.values[name].Unit)
	}
	for _, b := range lm.broken {
		fmt.Fprintf(stdout, "INVARIANT BROKEN: %s\n", b)
	}
	fmt.Fprintf(stdout, "%-18s %12d\n%-18s %12d\n", "ops_attempted", lm.attempted, "ops_failed", lm.failed)
	return result{
		Correct:   lm.failed == 0 && len(lm.broken) == 0 && lm.attempted > 0,
		Attempted: lm.attempted,
		Failed:    lm.failed,
		Metrics:   lm.values,
	}, nil
}
