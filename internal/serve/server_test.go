package serve

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"slices"
	"strings"
	"sync"
	"testing"

	"github.com/flpsim/flp/internal/adversary"
	"github.com/flpsim/flp/internal/enginetest"
	"github.com/flpsim/flp/internal/explore"
	"github.com/flpsim/flp/internal/protocols"
)

// newTestServer boots a server over httptest and hands back both handles.
func newTestServer(t *testing.T, opt Options) (*Server, *httptest.Server) {
	t.Helper()
	s, err := New(opt)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	hs := httptest.NewServer(s.Handler())
	t.Cleanup(hs.Close)
	return s, hs
}

// postJSON posts body and decodes the JSON answer into out.
func postJSON(t *testing.T, url string, body any, out any) *http.Response {
	t.Helper()
	b, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(b))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatalf("decoding %s response: %v", url, err)
		}
	}
	return resp
}

func getJSON(t *testing.T, url string, out any) *http.Response {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatalf("decoding %s response: %v", url, err)
		}
	}
	return resp
}

// TestCensusMatchesEngine pins the core serving contract: a served census
// is identical to explore.CensusInitial — same valencies, same exactness,
// same visit counts, per input.
func TestCensusMatchesEngine(t *testing.T) {
	_, hs := newTestServer(t, Options{})
	var view struct {
		State  JobState     `json:"state"`
		Result CensusResult `json:"result"`
	}
	resp := postJSON(t, hs.URL+"/v1/census?wait=1",
		CensusRequest{Protocol: "naivemajority", N: 3}, &view)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	if view.State != StateDone {
		t.Fatalf("job state %q", view.State)
	}

	factory, _ := protocols.Lookup("naivemajority")
	pr, _ := factory(3)
	want, err := explore.CensusInitial(pr, explore.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(view.Result.PerInput) != len(want.PerInput) {
		t.Fatalf("served %d rows, engine %d", len(view.Result.PerInput), len(want.PerInput))
	}
	for i, row := range view.Result.PerInput {
		w := want.PerInput[i]
		if row.Inputs != w.Inputs.String() || row.Valency != w.Info.Valency.String() ||
			row.Exact != w.Info.Exact || row.Visited != w.Info.Visited {
			t.Errorf("row %d: served %+v, engine {%s %s %v %d}",
				i, row, w.Inputs, w.Info.Valency, w.Info.Exact, w.Info.Visited)
		}
	}
	if view.Result.AllExact != want.AllExact {
		t.Errorf("all_exact: served %v, engine %v", view.Result.AllExact, want.AllExact)
	}
	if want.Bivalent != nil && view.Result.Bivalent != want.Bivalent.Inputs.String() {
		t.Errorf("bivalent: served %q, engine %q", view.Result.Bivalent, want.Bivalent.Inputs)
	}
}

// TestValencySuite runs every case a valency request can name through one
// server twice: the first pass is answered by queued jobs, the second from
// the atlases the first left in the cache, at admission, wherever the case
// has one. Each served result must be the engine's, byte for byte, and the
// engine's is held to the reference.
func TestValencySuite(t *testing.T) {
	_, hs := newTestServer(t, Options{})
	for _, path := range []string{"queued", "cached"} {
		t.Run(path, func(t *testing.T) {
			enginetest.ValencySuite(t, func(t *testing.T, c enginetest.Case) enginetest.Valency {
				return servedValency(t, hs.URL, c)
			})
		})
	}
}

// servedValency asks the server at base for case c's root valency, requires
// the served result to be explore.ClassifyRootCached's rendered byte for
// byte, and answers with that classification.
func servedValency(t *testing.T, base string, c enginetest.Case) enginetest.Valency {
	t.Helper()
	req := ValencyRequest{Protocol: c.Protocol, N: c.N, Budget: c.Options.MaxConfigs, Depth: c.Options.MaxDepth}
	for _, v := range c.Inputs {
		req.Inputs = append(req.Inputs, int(v))
	}
	_, view := postValency(t, base, req)
	want, info := engineAnswer(t, req)
	if got := resultOf(t, view); got != want {
		t.Fatalf("served %s\nengine %s", got, want)
	}
	return enginetest.ValencyOf(info)
}

// TestAdversaryMatchesEngine pins the served construction — produced in
// one-rotation chunks via Extend for progress — against a direct
// single-shot adversary.Run with the same stage count and flpcheck's
// unbounded-protocol probe configuration.
func TestAdversaryMatchesEngine(t *testing.T) {
	const stages = 7 // deliberately not a multiple of the rotation chunk
	_, hs := newTestServer(t, Options{})
	var view struct {
		State  JobState        `json:"state"`
		Error  string          `json:"error"`
		Result AdversaryResult `json:"result"`
	}
	resp := postJSON(t, hs.URL+"/v1/adversary?wait=1",
		AdversaryRequest{Protocol: "paxos", N: 3, Stages: stages}, &view)
	if resp.StatusCode != http.StatusOK || view.State != StateDone {
		t.Fatalf("status %d, state %q, error %q", resp.StatusCode, view.State, view.Error)
	}

	factory, _ := protocols.Lookup("paxos")
	pr, _ := factory(3)
	probe := explore.ProbeOptions{}
	res, err := adversary.New(pr, adversary.Options{
		Stages:  stages,
		Probe:   &probe,
		Valency: explore.Options{MaxConfigs: 1500},
		Search:  explore.Options{MaxConfigs: 2000},
	}).Run()
	if err != nil {
		t.Fatal(err)
	}
	if view.Result.Inputs != res.Inputs.String() {
		t.Errorf("inputs: served %s, engine %s", view.Result.Inputs, res.Inputs)
	}
	if view.Result.Stages != stages || view.Result.Steps != res.Steps() {
		t.Errorf("served %d stages / %d steps, engine %d / %d",
			view.Result.Stages, view.Result.Steps, stages, res.Steps())
	}
	if view.Result.DecidedCount != 0 || !view.Result.Verified {
		t.Errorf("decided=%d verified=%v, want 0/true", view.Result.DecidedCount, view.Result.Verified)
	}
}

// TestConcurrentCensusSharesAtlases pins the cache contract end to end,
// at every pool size from one worker to one per client: N concurrent
// identical censuses over 2^n roots cost exactly 2^n atlas builds between
// them — everything else is a hit or a merged wait.
func TestConcurrentCensusSharesAtlases(t *testing.T) {
	const clients = 8
	for _, pool := range []int{1, 2, 4, 8} {
		s, hs := newTestServer(t, Options{Workers: pool, QueueDepth: 32})
		var wg sync.WaitGroup
		for i := 0; i < clients; i++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				var view struct {
					State JobState `json:"state"`
				}
				postJSON(t, hs.URL+"/v1/census?wait=1",
					CensusRequest{Protocol: "naivemajority", N: 3}, &view)
				if view.State != StateDone {
					t.Errorf("pool %d: job state %q", pool, view.State)
				}
			}()
		}
		wg.Wait()
		hits, misses, merged := s.AtlasCache().Stats()
		if misses != 8 {
			t.Fatalf("pool %d: %d clients × 8 roots ran %d builds, want 8", pool, clients, misses)
		}
		if hits+merged != clients*8-8 {
			t.Fatalf("pool %d: hits+merged = %d, want %d", pool, hits+merged, clients*8-8)
		}
	}
}

// TestCensusRowsInOrder holds a census's progress rows to AllInputs order
// when its roots are classified on several workers: every row is published
// in order, and a census cut by a drain publishes the rows up to its cut
// and none after, though the workers may have classified roots past it.
func TestCensusRowsInOrder(t *testing.T) {
	s, _ := newTestServer(t, Options{})
	pr, err := s.resolveProtocol("naivemajority", 3)
	if err != nil {
		t.Fatal(err)
	}
	want, err := explore.CensusInitial(pr, explore.Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	var rows []string
	for _, iv := range want.PerInput {
		rows = append(rows, fmt.Sprintf("inputs %s: %s (%d configurations)", iv.Inputs, iv.Info.Valency, iv.Info.Visited))
	}
	for cut := 1; cut <= len(rows); cut++ {
		for trial := 0; trial < 5; trial++ {
			var got []string
			_, err := s.censusJob(CensusRequest{Protocol: "naivemajority", N: 3, Workers: 4})(
				func(msg string) { got = append(got, msg) },
				func() bool { return len(got) >= cut })
			if cut < len(rows) && err != errCanceled {
				t.Fatalf("census cut after %d rows: %v, want errCanceled", cut, err)
			}
			if !slices.Equal(got, rows[:cut]) {
				t.Fatalf("census cut after %d rows published\n%s\nwant\n%s", cut,
					strings.Join(got, "\n"), strings.Join(rows[:cut], "\n"))
			}
		}
	}
}

// TestJobEventsStream reads the NDJSON progress stream: replayed events,
// then the terminal job view.
func TestJobEventsStream(t *testing.T) {
	_, hs := newTestServer(t, Options{})
	var accepted struct {
		ID string `json:"id"`
	}
	resp := postJSON(t, hs.URL+"/v1/census",
		CensusRequest{Protocol: "naivemajority", N: 3}, &accepted)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit status %d", resp.StatusCode)
	}
	if loc := resp.Header.Get("Location"); loc != "/v1/jobs/"+accepted.ID {
		t.Fatalf("Location %q", loc)
	}

	eresp, err := http.Get(hs.URL + "/v1/jobs/" + accepted.ID + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer eresp.Body.Close()
	if ct := eresp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Fatalf("Content-Type %q", ct)
	}
	sc := bufio.NewScanner(eresp.Body)
	var progress int
	var final struct {
		State JobState `json:"state"`
	}
	for sc.Scan() {
		line := sc.Bytes()
		var ev struct {
			Seq *int     `json:"seq"`
			Msg string   `json:"msg"`
			ID  string   `json:"id"`
			St  JobState `json:"state"`
		}
		if err := json.Unmarshal(line, &ev); err != nil {
			t.Fatalf("bad NDJSON line %q: %v", line, err)
		}
		if ev.ID != "" { // terminal job view closes the stream
			final.State = ev.St
			break
		}
		progress++
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	// 8 per-input events plus the "job done" event.
	if progress < 8 {
		t.Fatalf("streamed %d progress events, want ≥ 8", progress)
	}
	if final.State != StateDone {
		t.Fatalf("final view state %q", final.State)
	}
}

// TestJobStatusAndErrors covers the small surfaces: unknown jobs, bad
// bodies, unknown protocols and malformed input vectors failing the job
// (not the submission), the protocol listing, and health. That
// self-describing gen: names resolve through the API as through the CLIs
// is TestValencySuite's, whose cases name 42 of them.
func TestJobStatusAndErrors(t *testing.T) {
	_, hs := newTestServer(t, Options{})

	if resp := getJSON(t, hs.URL+"/v1/jobs/nope", nil); resp.StatusCode != http.StatusNotFound {
		t.Errorf("unknown job: status %d, want 404", resp.StatusCode)
	}

	resp, err := http.Post(hs.URL+"/v1/census", "application/json", strings.NewReader("{not json"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("bad body: status %d, want 400", resp.StatusCode)
	}

	var view struct {
		State JobState `json:"state"`
		Error string   `json:"error"`
	}
	postJSON(t, hs.URL+"/v1/census?wait=1", CensusRequest{Protocol: "no-such", N: 3}, &view)
	if view.State != StateFailed || !strings.Contains(view.Error, "unknown protocol") {
		t.Errorf("unknown protocol: state %q error %q", view.State, view.Error)
	}
	postJSON(t, hs.URL+"/v1/valency?wait=1", ValencyRequest{Protocol: "naivemajority", N: 3, Inputs: []int{0, 1}}, &view)
	if view.State != StateFailed || !strings.Contains(view.Error, "want n=3") {
		t.Errorf("bad inputs length: state %q error %q", view.State, view.Error)
	}

	var protos struct {
		Protocols []string `json:"protocols"`
	}
	getJSON(t, hs.URL+"/v1/protocols", &protos)
	found := false
	for _, p := range protos.Protocols {
		if p == "naivemajority" {
			found = true
		}
	}
	if !found {
		t.Errorf("protocol listing %v missing naivemajority", protos.Protocols)
	}

	var health struct {
		Status   string `json:"status"`
		Draining bool   `json:"draining"`
	}
	getJSON(t, hs.URL+"/healthz", &health)
	if health.Status != "ok" || health.Draining {
		t.Errorf("healthz: %+v", health)
	}
}

// TestHostileNRefused sends every endpoint a process count no root loop can
// take, on every registered protocol (waitall, trivial0, 2pc, 3pc and benor
// build at any n): each request must end in a refusal or a failed job, and
// the server must still answer afterwards.
func TestHostileNRefused(t *testing.T) {
	_, hs := newTestServer(t, Options{})
	for _, proto := range protocols.Names() {
		for _, n := range []int{-1, 63, 64} {
			inputs := make([]int, max(n, 0))
			reqs := map[string]any{
				"census":    CensusRequest{Protocol: proto, N: n, Budget: 100},
				"valency":   ValencyRequest{Protocol: proto, N: n, Inputs: inputs, Budget: 100},
				"adversary": AdversaryRequest{Protocol: proto, N: n, Stages: 1},
			}
			for endpoint, req := range reqs {
				var view struct {
					State JobState `json:"state"`
					Error string   `json:"error"`
				}
				resp := postJSON(t, hs.URL+"/v1/"+endpoint+"?wait=1", req, &view)
				if resp.StatusCode != http.StatusOK {
					continue // refused at admission
				}
				if view.State != StateFailed || view.Error == "" {
					t.Errorf("%s %s n=%d: state %q error %q, want a failed job", endpoint, proto, n, view.State, view.Error)
				}
			}
		}
	}
	var health struct {
		Status string `json:"status"`
	}
	if resp := getJSON(t, hs.URL+"/healthz", &health); resp.StatusCode != http.StatusOK || health.Status != "ok" {
		t.Errorf("healthz after hostile n: status %d %+v", resp.StatusCode, health)
	}
}

// TestMetricsExposition checks /metrics speaks the exposition format and
// carries the serving instruments after traffic.
func TestMetricsExposition(t *testing.T) {
	_, hs := newTestServer(t, Options{})
	postJSON(t, hs.URL+"/v1/census?wait=1", CensusRequest{Protocol: "naivemajority", N: 3}, nil)

	resp, err := http.Get(hs.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain; version=0.0.4") {
		t.Fatalf("Content-Type %q", ct)
	}
	var sb strings.Builder
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		sb.WriteString(sc.Text())
		sb.WriteByte('\n')
	}
	body := sb.String()
	for _, want := range []string{
		`flpserve_jobs_total{kind="census",state="done"} 1`,
		"flpserve_job_duration_seconds_count",
		"flpserve_queue_depth 0",
		"flpserve_jobs_inflight 0",
		`flpserve_atlas_cache_lookups_total{outcome="miss"} 8`,
		"flpserve_http_requests_total",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("metrics missing %q\n%s", want, body)
		}
	}
}

// TestMetricsCountJobBeforeAnswer scrapes /metrics right after each
// ?wait=1 answer, many times over: the job that was just answered must
// already be counted, its duration observed and nothing left in flight.
// The queue counts a job before finish wakes its waiter.
func TestMetricsCountJobBeforeAnswer(t *testing.T) {
	_, hs := newTestServer(t, Options{})
	for i := 1; i <= 100; i++ {
		var v JobView
		postJSON(t, hs.URL+"/v1/census?wait=1", CensusRequest{Protocol: "2pc", N: 3}, &v)
		if v.State != StateDone {
			t.Fatalf("answer %d: job %s is %s", i, v.ID, v.State)
		}
		if got := scrapeCounter(t, hs.URL, `flpserve_jobs_total{kind="census",state="done"}`); got != float64(i) {
			t.Fatalf("after answer %d, jobs_total counts %v census jobs done", i, got)
		}
		if got := scrapeCounter(t, hs.URL, `flpserve_job_duration_seconds_count{kind="census"}`); got != float64(i) {
			t.Fatalf("after answer %d, job_duration_seconds observed %v census jobs", i, got)
		}
		if got := scrapeCounter(t, hs.URL, "flpserve_jobs_inflight"); got != 0 {
			t.Fatalf("after answer %d, %v jobs in flight", i, got)
		}
	}
}
