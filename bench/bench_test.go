package main

import (
	"bytes"
	"encoding/json"
	"math"
	"net"
	"os"
	"reflect"
	"strings"
	"testing"
	"time"

	"github.com/flpsim/flp/internal/distexplore"
)

func passOf(wall time.Duration, lat ...float64) passResult {
	p := passResult{wall: wall}
	for _, ms := range lat {
		p.samples = append(p.samples, sample{class: "c", ms: ms})
	}
	return p
}

func TestQuantileInterpolates(t *testing.T) {
	xs := []float64{10, 20, 30, 40, 50}
	for _, tc := range []struct{ q, want float64 }{{0, 10}, {0.5, 30}, {0.25, 20}, {0.95, 48}, {1, 50}} {
		if got := quantile(xs, tc.q); math.Abs(got-tc.want) > 1e-9 {
			t.Errorf("quantile(%v) = %v, want %v", tc.q, got, tc.want)
		}
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median of an even count = %v, want 2.5", got)
	}
}

// Every timing is read at the lower quartile of identical repeats: a
// minority of passes ten times slower than their peers must not move any of
// them, and the percentiles are taken over the schedule's ops, each op at the
// lower quartile of its own repeats.
func TestSummarizeReadsTheLowerQuartileAcrossPasses(t *testing.T) {
	passes := []passResult{
		passOf(1*time.Second, 1, 2, 3, 4, 5),
		passOf(10*time.Second, 10, 20, 30, 40, 50),
		passOf(1*time.Second, 1, 2, 3, 4, 5),
		passOf(1*time.Second, 1, 2, 3, 4, 50), // one op caught by a burst
		passOf(10*time.Second, 10, 20, 30, 40, 50),
	}
	e := summarize([]float64{3, 1, 2}, passes, 50e6)
	if e.setupS != 2 {
		t.Errorf("setup_s = %v, want the median 2", e.setupS)
	}
	if e.opsPerS != 5 {
		t.Errorf("ops_per_s = %v, want 5 ops / 1 s lower-quartile pass", e.opsPerS)
	}
	if e.p50ms != 3 {
		t.Errorf("op_p50_ms = %v, want 3", e.p50ms)
	}
	if want := 4.8; math.Abs(e.p95ms-want) > 1e-9 {
		t.Errorf("op_p95_ms = %v, want %v", e.p95ms, want)
	}
	if e.attempted != 25 || e.failed != 0 || e.passes != 5 || e.opsInPass != 5 {
		t.Errorf("counts = %+v", e)
	}
	if e.allocMBPerOp != 2 {
		t.Errorf("alloc_mb_per_op = %v, want 50 MB / 25 ops", e.allocMBPerOp)
	}

	// A run during which the reference kernel took twice its nominal time is
	// reported as on a machine twice as fast; what it allocated is not a time.
	if got := e.result().Metrics["op_p50_ms"].Value; got != 3 {
		t.Errorf("reported op_p50_ms = %v with no reference timed, want it as timed", got)
	}
	e.refMS = 2 * referenceNominalMS
	got := e.result().Metrics
	for name, want := range map[string]float64{"setup_s": 1, "ops_per_s": 10, "op_p50_ms": 1.5, "op_p95_ms": 2.4, "alloc_mb_per_op": 2} {
		if math.Abs(got[name].Value-want) > 1e-9 {
			t.Errorf("reported %s = %v on a machine at half speed, want %v", name, got[name].Value, want)
		}
	}

	// Position i of every pass is the same op: a slow op stays slow however
	// the fast ones around it repeat.
	ops := steadyOps([]passResult{passOf(time.Second, 1, 9), passOf(time.Second, 2, 8), passOf(time.Second, 1, 9)})
	if len(ops) != 2 || ops[0].ms != 1 || ops[1].ms != 8.5 {
		t.Errorf("steadyOps = %+v, want the lower quartiles 1 and 8.5 per position", ops)
	}
}

// A failed op has no latency to report: it sorts above every real sample,
// drags the percentiles that reach it to +Inf, and makes the run incorrect.
func TestFailedOpCountsAsInfinity(t *testing.T) {
	p := passOf(time.Second, 1, 2, 3, 4)
	p.samples[0].failed = true
	lat := p.latencies()
	if !math.IsInf(lat[len(lat)-1], 1) || lat[0] != 2 {
		t.Fatalf("latencies = %v, want the failed op last as +Inf", lat)
	}
	e := summarize([]float64{1}, []passResult{p}, 0)
	if !math.IsInf(e.p95ms, 1) {
		t.Errorf("op_p95_ms = %v, want +Inf when the slowest op failed", e.p95ms)
	}
	if e.p50ms != 3.5 {
		t.Errorf("op_p50_ms = %v, want 3.5 (median of 2, 3, 4, +Inf)", e.p50ms)
	}
	res := e.result()
	if res.Correct || res.Failed != 1 {
		t.Errorf("result = %+v, want incorrect with 1 failure", res)
	}
	// An op that failed in one pass of several is failed, not rescued by its
	// good repeats.
	e = summarize([]float64{1}, []passResult{passOf(time.Second, 1, 2, 3, 4), p, passOf(time.Second, 1, 2, 3, 4)}, 0)
	if !math.IsInf(e.p95ms, 1) || e.failed != 1 {
		t.Errorf("op_p95_ms = %v with %d failures, want +Inf and 1: a failure in any pass fails the op", e.p95ms, e.failed)
	}
	if _, err := json.Marshal(res); err != nil {
		t.Errorf("a result with an infinite percentile must still encode: %v", err)
	}
}

func TestRankRatioAndClassAt(t *testing.T) {
	// 80 fast ops, 10 medium, 10 slow: p50 is deep inside the fast class,
	// p95 inside the slow one, and p85 would sit on a boundary.
	var p passResult
	for i := 0; i < 80; i++ {
		p.samples = append(p.samples, sample{class: "hot", ms: 1})
	}
	for i := 0; i < 10; i++ {
		p.samples = append(p.samples, sample{class: "warm", ms: 5}, sample{class: "cold", ms: 100})
	}
	passes := steadyOps([]passResult{p, p})
	if r := rankRatio(passes, 0.50); r != 1 {
		t.Errorf("rank ratio at p50 = %v, want 1", r)
	}
	if r := rankRatio(passes, 0.95); r != 1 {
		t.Errorf("rank ratio at p95 = %v, want 1", r)
	}
	if r := rankRatio(passes, 0.88); r < 10 {
		t.Errorf("rank ratio across the warm/cold boundary = %v, want the class gap", r)
	}
	if c, share := classAt(passes, 0.92, 0.98); c != "cold" || share != 1 {
		t.Errorf("ranks 92-98%% are %v %q, want all cold", share, c)
	}
	if c, share := classAt(passes, 0.88, 0.98); c != "cold" || share != 0.75 {
		t.Errorf("ranks 88-98%% are %v %q, want 9 cold of 12 across the warm/cold boundary", share, c)
	}
}

func TestSelfTimeSubtractsChildren(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "op.x", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "explore.A", Start: 10, End: 40},
		{ID: 3, Parent: 1, Name: "model.B", Start: 30, End: 60}, // overlaps its sibling
		{ID: 4, Parent: 2, Name: "model.B", Start: 15, End: 20},
	}
	self := map[string]float64{}
	for _, r := range layerTable(spans) {
		self[r.Name] = r.SelfMS * 1e6
	}
	// op.x: 100 − union[10,60) = 50; explore.A: 30 − 5; model.B: 30 + 5.
	want := map[string]float64{"op.x": 50, "explore.A": 25, "model.B": 35}
	for name, w := range want {
		if math.Abs(self[name]-w) > 1e-6 {
			t.Errorf("self time of %s = %v ns, want %v", name, self[name], w)
		}
	}
	if got := selfByLayer(layerTable(spans))["model"] * 1e6; math.Abs(got-35) > 1e-6 {
		t.Errorf("layer model self = %v ns, want 35", got)
	}
}

func TestTracerRecordsParentsAndOps(t *testing.T) {
	tr := newTracer()
	s, endOp := tr.beginOp("op.x")
	_, end := s.begin("explore.Explore")
	end()
	endOp()
	if len(tr.spans) != 2 || tr.spans[1].Parent != tr.spans[0].ID || tr.spans[1].Op != tr.spans[0].Op || tr.spans[0].Op == 0 {
		t.Fatalf("spans = %+v", tr.spans)
	}
	if tr.spans[0].End < tr.spans[1].End || tr.spans[1].End < tr.spans[1].Start {
		t.Errorf("span times out of order: %+v", tr.spans)
	}
	// The nil tracer is the untraced run: nothing recorded, nothing panics.
	var off *tracer
	s, endOp = off.beginOp("op.x")
	_, end = s.begin("explore.Explore")
	end()
	endOp()
}

func buildAll(t *testing.T, cfg config) map[string]workload {
	t.Helper()
	out := map[string]workload{}
	for _, info := range workloads {
		w, err := info.make(cfg)
		if err != nil {
			t.Fatalf("%s: %v", info.name, err)
		}
		out[info.name] = w
	}
	return out
}

func scheduleIDs(w workload) []string {
	var ids []string
	switch w := w.(type) {
	case *exploreWide:
		for _, op := range w.ops {
			ids = append(ids, op.id)
		}
	case *lemmaPipeline:
		for _, op := range w.ops {
			ids = append(ids, op.id)
		}
	case *clusterRecover:
		for _, op := range w.ops {
			ids = append(ids, op.role+" "+op.id)
		}
	case *serveMixed:
		for _, i := range w.cold {
			ids = append(ids, "cold "+w.roots[i].id)
		}
		for _, i := range w.warmHot {
			ids = append(ids, w.roots[i].id)
		}
	}
	return ids
}

// The same seed gives the same schedule; another seed gives another order
// of the same ops, all of them known to golden.json.
func TestScheduleIsDeterministicPerSeed(t *testing.T) {
	golden, err := loadGolden()
	if err != nil {
		t.Fatal(err)
	}
	a, again, b := buildAll(t, config{seed: 7}), buildAll(t, config{seed: 7}), buildAll(t, config{seed: 8})
	for _, info := range workloads {
		ids := scheduleIDs(a[info.name])
		if len(ids) == 0 {
			t.Fatalf("%s: empty schedule", info.name)
		}
		if !reflect.DeepEqual(ids, scheduleIDs(again[info.name])) {
			t.Errorf("%s: seed 7 built two different schedules", info.name)
		}
		other := scheduleIDs(b[info.name])
		if reflect.DeepEqual(ids, other) {
			t.Errorf("%s: seeds 7 and 8 built the same schedule", info.name)
		}
		if len(other) != len(ids) {
			t.Errorf("%s: seed changes the amount of work: %d vs %d ops", info.name, len(ids), len(other))
		}
		for _, id := range ids {
			id = id[strings.LastIndexByte(id, ' ')+1:]
			if _, ok := golden[info.name+"/"+id]; !ok {
				t.Errorf("%s: op %q has no digest in golden.json (run go run ./bench -mint)", info.name, id)
			}
		}
	}
}

// cluster-recover: of every 8 ops, 6 clean, 1 worker kill, 1 coordinator
// crash + resume — on every kernel, at every seed.
func TestClusterRoleMix(t *testing.T) {
	for seed := int64(1); seed <= 3; seed++ {
		w, err := newClusterRecover(config{seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		perKernel := map[string]map[string]int{}
		for _, op := range w.(*clusterRecover).ops {
			k := op.id[:strings.IndexByte(op.id, '/')]
			if perKernel[k] == nil {
				perKernel[k] = map[string]int{}
			}
			perKernel[k][op.role]++
		}
		if len(perKernel) != len(clusterKernels) {
			t.Fatalf("kernels = %v", perKernel)
		}
		for k, roles := range perKernel {
			n := roles[roleClean] + roles[roleKill] + roles[roleResume]
			if roles[roleClean]*8 != n*6 || roles[roleKill]*8 != n || roles[roleResume]*8 != n {
				t.Errorf("seed %d kernel %s: roles %v are not 6/1/1 of %d", seed, k, roles, n)
			}
		}
	}
}

// serve-mixed: every root once cold, once warm (its first appearance after
// the restart) and eight times hot — 10/10/80.
func TestServeClassMix(t *testing.T) {
	wl, err := newServeMixed(config{seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	w := wl.(*serveMixed)
	roots := len(w.roots)
	if roots != len(serveProtocols)*8 || len(w.cold) != roots {
		t.Fatalf("%d roots, %d cold ops", roots, len(w.cold))
	}
	seen := map[int]int{}
	for _, i := range w.warmHot {
		seen[i]++
	}
	for i := 0; i < roots; i++ {
		if seen[i] != 1+serveRepeats {
			t.Fatalf("root %d appears %d times after the restart, want 1 warm + %d hot", i, seen[i], serveRepeats)
		}
	}
	total := len(w.cold) + len(w.warmHot)
	if len(w.cold)*10 != total || roots*serveRepeats*10 != total*8 {
		t.Errorf("mix is not 10/10/80: %d cold, %d warm, %d hot of %d", len(w.cold), roots, roots*serveRepeats, total)
	}
}

// -smoke runs each workload end to end on tiny budgets: set-up, one timed
// pass, every digest checked, a well-formed result line last.
func TestSmokeEveryWorkload(t *testing.T) {
	for _, info := range workloads {
		t.Run(info.name, func(t *testing.T) {
			var out, errOut bytes.Buffer
			code := run([]string{"-workload", info.name, "-smoke", "-state-dir", t.TempDir()}, &out, &errOut)
			if code != 0 {
				t.Fatalf("exit %d: %s", code, errOut.String())
			}
			res, d, err := parseRun(out.Bytes())
			if err != nil {
				t.Fatal(err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("result = %+v\nstderr: %s", res, errOut.String())
			}
			if d.Passes != 1 || d.OpsInPass != res.Attempted {
				t.Errorf("detail = %+v with %d ops attempted", d, res.Attempted)
			}
			for _, m := range e2eMetrics {
				got, ok := res.Metrics[m.name]
				if !ok || got.Unit != m.unit || !(got.Value > 0) {
					t.Errorf("metric %s = %+v, want a positive value in %s", m.name, got, m.unit)
				}
			}
			if len(res.Metrics) != len(e2eMetrics) {
				t.Errorf("an end-to-end run printed %d metrics, want exactly %d", len(res.Metrics), len(e2eMetrics))
			}
		})
	}
}

// A wrong digest is a failed op, not a slow one.
func TestWrongDigestFailsTheOp(t *testing.T) {
	golden, err := loadGolden()
	if err != nil {
		t.Fatal(err)
	}
	bad := map[string]string{}
	for k, v := range golden {
		bad[k] = v
	}
	w, err := newExploreWide(config{seed: 1, smoke: true, golden: bad})
	if err != nil {
		t.Fatal(err)
	}
	victim := w.(*exploreWide).ops[0].id
	bad["explore-wide/"+victim] = "0000000000000000"
	if p := w.pass(nil); p.failures() != 1 || !p.samples[0].failed {
		t.Errorf("%d failures, want exactly the op whose digest was changed", p.failures())
	}
}

func TestParseMetricsAndSum(t *testing.T) {
	c := parseMetrics(`# HELP flpserve_jobs_total Jobs finished.
# TYPE flpserve_jobs_total counter
flpserve_jobs_total{kind="valency",state="done"} 12
flpserve_jobs_total{kind="census",state="done"} 3
flpserve_jobs_total{kind="census",state="failed"} 1
flpserve_queue_depth 0
`)
	if got := c.sum("flpserve_jobs_total"); got != 16 {
		t.Errorf("sum of all series = %v, want 16", got)
	}
	if got := c.sum("flpserve_jobs_total", `state="done"`); got != 15 {
		t.Errorf("sum of done = %v, want 15", got)
	}
	if got := c.sum("flpserve_jobs_total", `kind="census"`, `state="failed"`); got != 1 {
		t.Errorf("sum of failed censuses = %v, want 1", got)
	}
	if got := c.sum("flpserve_jobs"); got != 0 {
		t.Errorf("a name prefix matched %v, want 0", got)
	}
	d := counters{"x": 1}
	d.add(counters{"x": 2, "y": 5})
	if d["x"] != 3 || d["y"] != 5 {
		t.Errorf("add = %v", d)
	}
}

// The counting transport counts frames from the length-prefixed stream, so
// a frame split over two writes — header, then payload, as the coordinator
// sends it — is one frame.
func TestCountingTransportCountsFrames(t *testing.T) {
	ct := &countingTransport{Transport: distexplore.NewLoopback()}
	l, err := ct.Listen("w0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	got := make(chan int, 1)
	go func() {
		c, err := l.Accept()
		if err != nil {
			got <- -1
			return
		}
		defer c.Close()
		buf := make([]byte, 64)
		n := 0
		for n < 5+3+5 {
			k, err := c.Read(buf[n:])
			if err != nil {
				break
			}
			n += k
		}
		got <- n
		c.Write([]byte{1, 2}) // net.Pipe is synchronous: this returns once the test reads
	}()
	c, err := ct.Dial("w0", time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	write := func(c net.Conn, b ...byte) {
		if _, err := c.Write(b); err != nil {
			t.Fatal(err)
		}
	}
	write(c, 0, 0, 0, 3, 0x02) // header: 3-byte payload
	write(c, 9, 9)             // payload, in two pieces
	write(c, 9)
	write(c, 0, 0, 0, 0, 0x05) // an empty frame
	if n := <-got; n != 13 {
		t.Fatalf("worker read %d bytes, want 13", n)
	}
	if _, err := c.Read(make([]byte, 2)); err != nil {
		t.Fatal(err)
	}
	if f, out, in := ct.framesOut.Load(), ct.bytesOut.Load(), ct.bytesIn.Load(); f != 2 || out != 13 || in != 2 {
		t.Errorf("frames %d, bytes out %d, bytes in %d; want 2, 13, 2", f, out, in)
	}
	if !ct.InProcess() {
		t.Error("wrapping Loopback must stay in-process, or frame compression switches on")
	}
}

// BENCHMARK.json and the harness must describe the same benchmark.
func TestBenchmarkJSONMatchesHarness(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skipf("no BENCHMARK.json beside bench/: %v", err)
	}
	var b struct {
		RunSeconds int `json:"run_seconds"`
		Workloads  []struct{ Name, Why string }
		EndToEnd   []struct {
			Name, Unit, Better string
			Bound              float64
		} `json:"end_to_end"`
		PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	if b.RunSeconds != defaultSeconds {
		t.Errorf("run_seconds = %d, the harness defaults to %d", b.RunSeconds, defaultSeconds)
	}
	if len(b.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in the harness", len(b.Workloads), len(workloads))
	}
	for i, w := range b.Workloads {
		if w.Name != workloads[i].name || w.Why != workloads[i].why {
			t.Errorf("workload %d: BENCHMARK.json has %q (%q), the harness %q (%q)", i, w.Name, w.Why, workloads[i].name, workloads[i].why)
		}
	}
	if len(b.EndToEnd) != len(e2eMetrics) {
		t.Fatalf("%d end-to-end metrics in BENCHMARK.json, %d in the harness", len(b.EndToEnd), len(e2eMetrics))
	}
	for i, m := range b.EndToEnd {
		want := e2eMetrics[i]
		better := map[bool]string{true: "higher", false: "lower"}[want.higher]
		if m.Name != want.name || m.Unit != want.unit || m.Better != better || m.Bound != want.bound {
			t.Errorf("end-to-end metric %d: BENCHMARK.json has %+v, the harness %+v", i, m, want)
		}
	}
	names := map[string]string{}
	for _, m := range b.PerLayer {
		names[m.Name] = m.Unit
	}
	if !reflect.DeepEqual(names, perLayerUnits) {
		for n, u := range perLayerUnits {
			if names[n] != u {
				t.Errorf("per-layer metric %s: BENCHMARK.json has unit %q, the harness %q", n, names[n], u)
			}
		}
		for n := range names {
			if _, ok := perLayerUnits[n]; !ok {
				t.Errorf("per-layer metric %s is in BENCHMARK.json but the harness does not print it", n)
			}
		}
	}
}

// A traced smoke run exercises every probe: it must print exactly the
// per-layer metrics the harness declares, hold every invariant, and write a
// span file whose spans link to their parents.
func TestSmokeTracedRun(t *testing.T) {
	dir := t.TempDir()
	spanFile := dir + "/spans.json"
	var out, errOut bytes.Buffer
	code := run([]string{"-workload", "lemma-pipeline", "-smoke", "-trace", spanFile, "-state-dir", dir}, &out, &errOut)
	if code != 0 {
		t.Fatalf("exit %d: %s", code, errOut.String())
	}
	res, _, err := parseRun(out.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if !res.Correct || res.Failed != 0 {
		t.Errorf("traced run incorrect: %d of %d ops failed\n%s", res.Failed, res.Attempted, out.String())
	}
	for name, unit := range perLayerUnits {
		if got, ok := res.Metrics[name]; !ok || got.Unit != unit {
			t.Errorf("per-layer metric %s = %+v, want unit %s", name, got, unit)
		}
	}
	if len(res.Metrics) != len(perLayerUnits) {
		t.Errorf("a traced run printed %d metrics, want exactly %d", len(res.Metrics), len(perLayerUnits))
	}
	data, err := os.ReadFile(spanFile)
	if err != nil {
		t.Fatal(err)
	}
	var file struct {
		Env    envStamp
		Layers []layerRow
		Spans  []span
	}
	if err := json.Unmarshal(data, &file); err != nil {
		t.Fatal(err)
	}
	if len(file.Spans) == 0 || len(file.Layers) == 0 || file.Env.Workload != "lemma-pipeline" {
		t.Fatalf("span file: %d spans, %d layer rows, env %+v", len(file.Spans), len(file.Layers), file.Env)
	}
	children := 0
	for _, s := range file.Spans {
		if s.End < s.Start {
			t.Fatalf("span %+v ends before it starts", s)
		}
		if s.Parent != 0 {
			children++
			if p := file.Spans[s.Parent-1]; p.Start > s.Start || p.End < s.End {
				t.Fatalf("span %+v is not inside its parent %+v", s, p)
			}
		}
	}
	if children == 0 {
		t.Error("no span has a parent")
	}
}
