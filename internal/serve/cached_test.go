package serve

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"testing"

	"github.com/flpsim/flp/internal/enginetest"
	"github.com/flpsim/flp/internal/explore"
	"github.com/flpsim/flp/internal/model"
	"github.com/flpsim/flp/internal/protogen"
)

// The cached-answer suite pins the valency hit path: a request whose root's
// atlas is already in the shared cache's memory is answered at admission,
// with no queue slot, no pool worker and one journal record, and must be
// indistinguishable from the queued answer in everything but cost.

// hotRequest is a valency query the suite primes and then repeats.
var hotRequest = ValencyRequest{Protocol: "naivemajority", N: 3, Inputs: []int{0, 1, 1}}

// fetch issues one request and returns its status and body.
func fetch(t testing.TB, method, url string, body any) (int, []byte) {
	t.Helper()
	var rd io.Reader
	if body != nil {
		b, err := json.Marshal(body)
		if err != nil {
			t.Fatal(err)
		}
		rd = bytes.NewReader(b)
	}
	req, err := http.NewRequest(method, url, rd)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, out
}

// postValency submits req with ?wait=1 and returns the job view's raw body,
// failing unless the job is done.
func postValency(t testing.TB, base string, req ValencyRequest) (id string, body []byte) {
	t.Helper()
	code, body := fetch(t, http.MethodPost, base+"/v1/valency?wait=1", req)
	var v JobView
	if err := json.Unmarshal(body, &v); err != nil || code != http.StatusOK || v.State != StateDone {
		t.Fatalf("POST valency %+v: status %d, body %s", req, code, body)
	}
	return v.ID, body
}

// answerOf renders a job view without the fields that name the job or time
// it — what two jobs asked the same question must agree on byte for byte.
func answerOf(t *testing.T, view []byte) string {
	t.Helper()
	var fields map[string]json.RawMessage
	if err := json.Unmarshal(view, &fields); err != nil {
		t.Fatalf("job view %q: %v", view, err)
	}
	for _, k := range []string{"id", "created", "started", "finished"} {
		delete(fields, k)
	}
	out, err := json.Marshal(fields)
	if err != nil {
		t.Fatal(err)
	}
	return string(out)
}

// eventsOf reads a job's NDJSON stream to its final view, and renders each
// event as seq and message, then the final view's answer.
func eventsOf(t *testing.T, base, id string) []string {
	t.Helper()
	code, body := fetch(t, http.MethodGet, base+"/v1/jobs/"+id+"/events", nil)
	if code != http.StatusOK {
		t.Fatalf("events for %s: status %d", id, code)
	}
	var out []string
	sc := bufio.NewScanner(bytes.NewReader(body))
	for sc.Scan() {
		var ev struct {
			Seq int    `json:"seq"`
			Msg string `json:"msg"`
			ID  string `json:"id"`
		}
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			t.Fatalf("bad NDJSON line %q: %v", sc.Text(), err)
		}
		if ev.ID != "" {
			return append(out, answerOf(t, sc.Bytes()))
		}
		out = append(out, fmt.Sprintf("%d %s", ev.Seq, ev.Msg))
	}
	t.Fatalf("events for %s: stream ended without the final view", id)
	return nil
}

// engineAnswer is the classification the CLIs print for req, with no
// server in the way, rendered as the API's result, and the classification
// itself.
func engineAnswer(t *testing.T, req ValencyRequest) (string, explore.ValencyInfo) {
	t.Helper()
	in := make(model.Inputs, len(req.Inputs))
	for i, v := range req.Inputs {
		in[i] = model.Value(v)
	}
	pr, root := enginetest.Case{Protocol: req.Protocol, N: req.N, Inputs: in}.MustResolve(t)
	opt := explore.Options{MaxConfigs: req.Budget}
	info := explore.ClassifyRootCached(pr, root, opt, explore.NewAtlasCache())
	raw, err := json.Marshal(ValencyResult{
		Protocol: pr.Name(), Inputs: in.String(), Valency: info.Valency.String(),
		Exact: info.Exact, Visited: info.Visited, Complete: info.Complete,
		Witness0: info.Witness0.String(), Witness1: info.Witness1.String(),
	})
	if err != nil {
		t.Fatal(err)
	}
	return string(raw), info
}

// resultOf returns a job view's result field as served.
func resultOf(t *testing.T, view []byte) string {
	t.Helper()
	var v struct {
		Result json.RawMessage `json:"result"`
	}
	if err := json.Unmarshal(view, &v); err != nil {
		t.Fatal(err)
	}
	return string(v.Result)
}

// TestCachedValencyMatchesQueued: the hot answer, its /v1/jobs/{id} view and
// its event stream are byte-identical to the queued answer's (IDs and times
// aside), and its result to explore.ClassifyRootCached's; the hot request
// took no queue slot and read the cache once.
func TestCachedValencyMatchesQueued(t *testing.T) {
	s, hs := newTestServer(t, Options{AtlasDir: t.TempDir(), Log: t.Logf})
	gen := protogen.Derive(7, protogen.DefaultDials(3))
	for _, req := range []ValencyRequest{
		hotRequest,
		{Protocol: gen.Name(), N: 3, Inputs: []int{1, 0, 1}, Budget: 4000},
	} {
		queuedID, queued := postValency(t, hs.URL, req)
		accepted := scrapeCounter(t, hs.URL, `flpserve_journal_records_total{type="accepted"}`)
		hits, _, _ := s.AtlasCache().Stats()
		hotID, hot := postValency(t, hs.URL, req)
		if got := scrapeCounter(t, hs.URL, `flpserve_journal_records_total{type="accepted"}`); got != accepted {
			t.Fatalf("%s: the hot request was queued (%v accepted records, was %v)", req.Protocol, got, accepted)
		}
		if h, _, _ := s.AtlasCache().Stats(); h != hits+1 {
			t.Fatalf("%s: the hot request counted %d cache hits, want 1", req.Protocol, h-hits)
		}

		if want, _ := engineAnswer(t, req); resultOf(t, hot) != want || resultOf(t, queued) != want {
			t.Fatalf("%s: results differ from the engine's\nhot    %s\nqueued %s\nengine %s",
				req.Protocol, resultOf(t, hot), resultOf(t, queued), want)
		}
		if a, b := answerOf(t, hot), answerOf(t, queued); a != b {
			t.Fatalf("%s: POST views differ\nhot    %s\nqueued %s", req.Protocol, a, b)
		}
		_, hotView := fetch(t, http.MethodGet, hs.URL+"/v1/jobs/"+hotID, nil)
		_, queuedView := fetch(t, http.MethodGet, hs.URL+"/v1/jobs/"+queuedID, nil)
		if a, b := answerOf(t, hotView), answerOf(t, queuedView); a != b {
			t.Fatalf("%s: GET views differ\nhot    %s\nqueued %s", req.Protocol, a, b)
		}
		he, qe := eventsOf(t, hs.URL, hotID), eventsOf(t, hs.URL, queuedID)
		if fmt.Sprint(he) != fmt.Sprint(qe) {
			t.Fatalf("%s: event streams differ\nhot    %q\nqueued %q", req.Protocol, he, qe)
		}
	}
}

// TestCachedValencyRestart: after a clean restart on the same directory the
// answered job replies to GET and /events exactly as before, byte for byte,
// and counts as history replayed.
func TestCachedValencyRestart(t *testing.T) {
	dir := t.TempDir()
	s1, hs1 := newTestServer(t, Options{AtlasDir: dir, Log: t.Logf})
	queuedID, _ := postValency(t, hs1.URL, hotRequest)
	hotID, _ := postValency(t, hs1.URL, hotRequest)
	_, view := fetch(t, http.MethodGet, hs1.URL+"/v1/jobs/"+hotID, nil)
	_, events := fetch(t, http.MethodGet, hs1.URL+"/v1/jobs/"+hotID+"/events", nil)
	_, queuedView := fetch(t, http.MethodGet, hs1.URL+"/v1/jobs/"+queuedID, nil)
	s1.Drain()
	hs1.Close()

	_, hs2 := newTestServer(t, Options{AtlasDir: dir, Log: t.Logf})
	if _, got := fetch(t, http.MethodGet, hs2.URL+"/v1/jobs/"+hotID, nil); !bytes.Equal(got, view) {
		t.Fatalf("GET %s after restart\n%s\nbefore\n%s", hotID, got, view)
	}
	if _, got := fetch(t, http.MethodGet, hs2.URL+"/v1/jobs/"+hotID+"/events", nil); !bytes.Equal(got, events) {
		t.Fatalf("events of %s after restart\n%s\nbefore\n%s", hotID, got, events)
	}
	if _, got := fetch(t, http.MethodGet, hs2.URL+"/v1/jobs/"+queuedID, nil); answerOf(t, got) != answerOf(t, queuedView) {
		t.Fatalf("queued job %s changed across the restart", queuedID)
	}
	if got := scrapeCounter(t, hs2.URL, `flpserve_checkpoint_ops_total{outcome="skip"}`); got != 2 {
		t.Errorf("skip counter %v, want 2 (the queued and the answered job)", got)
	}
}

// TestCachedValencyLostRecord: a crash that loses the answered job's
// unsynced record leaves its ID answering 404 — never another answer, not
// even after new submissions — and every other job's answer unchanged.
func TestCachedValencyLostRecord(t *testing.T) {
	dir := t.TempDir()
	_, hs1 := newTestServer(t, Options{AtlasDir: dir, Log: t.Logf})
	var census JobView
	postJSON(t, hs1.URL+"/v1/census?wait=1", CensusRequest{Protocol: "2pc", N: 3}, &census)
	queuedID, _ := postValency(t, hs1.URL, hotRequest)
	// A queued job is readable a moment before its terminal record is
	// appended; wait for both, so the answered job's record is the last.
	waitFor(t, "terminal records", func() bool {
		return scrapeCounter(t, hs1.URL, `flpserve_journal_records_total{type="terminal"}`) == 2
	})
	lostID, _ := postValency(t, hs1.URL, hotRequest)
	before := map[string]string{}
	for _, id := range []string{census.ID, queuedID} {
		_, v := fetch(t, http.MethodGet, hs1.URL+"/v1/jobs/"+id, nil)
		before[id] = answerOf(t, v)
	}
	hs1.Close() // crash: no drain

	// The answered job's record is the journal's last; tear it in half, as
	// a crash before the page cache reached the disk would.
	path := filepath.Join(dir, "jobs.journal")
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	last := bytes.LastIndexByte(data[:len(data)-1], '\n') + 1
	if !bytes.Contains(data[last:], []byte(`"id":"`+lostID+`"`)) {
		t.Fatalf("last journal record is not %s's: %s", lostID, data[last:])
	}
	if err := os.Truncate(path, int64(last+(len(data)-last)/2)); err != nil {
		t.Fatal(err)
	}

	_, hs2 := newTestServer(t, Options{AtlasDir: dir, Log: t.Logf})
	for _, suffix := range []string{"", "/events"} {
		if code, _ := fetch(t, http.MethodGet, hs2.URL+"/v1/jobs/"+lostID+suffix, nil); code != http.StatusNotFound {
			t.Fatalf("GET %s%s after losing its record: status %d, want 404", lostID, suffix, code)
		}
	}
	for id, want := range before {
		if _, v := fetch(t, http.MethodGet, hs2.URL+"/v1/jobs/"+id, nil); answerOf(t, v) != want {
			t.Fatalf("job %s after restart\n%s\nbefore\n%s", id, answerOf(t, v), want)
		}
	}
	// The reserve record synced before the lost one covers its number, so
	// numbering resumes past the whole reserved block.
	next, _ := postValency(t, hs2.URL, hotRequest)
	if want := fmt.Sprintf("valency-%d", 3+idReserve+1); next != want {
		t.Fatalf("first post-restart job is %s, want %s (past the reserved block holding %s)", next, want, lostID)
	}
	if code, _ := fetch(t, http.MethodGet, hs2.URL+"/v1/jobs/"+lostID, nil); code != http.StatusNotFound {
		t.Fatalf("GET %s after a new submission: status %d, want 404", lostID, code)
	}
}

// TestCachedValencyDrain: from the moment a drain begins, a request the
// cache could answer is refused with 503 like any other, without a lookup.
func TestCachedValencyDrain(t *testing.T) {
	s, hs := newTestServer(t, Options{})
	postValency(t, hs.URL, hotRequest)
	postValency(t, hs.URL, hotRequest)
	hits, _, _ := s.AtlasCache().Stats()
	s.Drain()
	resp := postJSON(t, hs.URL+"/v1/valency?wait=1", hotRequest, nil)
	if resp.StatusCode != http.StatusServiceUnavailable || resp.Header.Get("Retry-After") == "" {
		t.Fatalf("cached request after drain: status %d, Retry-After %q; want 503 with the header",
			resp.StatusCode, resp.Header.Get("Retry-After"))
	}
	if h, _, _ := s.AtlasCache().Stats(); h != hits {
		t.Fatalf("a refused request read the cache (%d hits, was %d)", h, hits)
	}
}

// TestCachedValencyQueueFull: with the pool pinned and the queue full, a
// cached answer still gets 200 and a cold request still gets 503.
func TestCachedValencyQueueFull(t *testing.T) {
	s, hs := newTestServer(t, Options{Workers: 1, QueueDepth: 1})
	postValency(t, hs.URL, hotRequest)
	release := make(chan struct{})
	defer close(release)
	if _, err := s.queue.Submit(KindCensus, nil, func(func(string), func() bool) (any, error) {
		<-release
		return nil, nil
	}); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "worker pickup", func() bool { return len(s.queue.queue) == 0 })
	if _, err := s.queue.Submit(KindCensus, nil, func(func(string), func() bool) (any, error) {
		return nil, nil
	}); err != nil {
		t.Fatal(err)
	}

	postValency(t, hs.URL, hotRequest)
	cold := ValencyRequest{Protocol: "naivemajority", N: 3, Inputs: []int{1, 1, 0}}
	if resp := postJSON(t, hs.URL+"/v1/valency?wait=1", cold, nil); resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("cold request on a full queue: status %d, want 503", resp.StatusCode)
	}
}

// TestCachedValencyMetrics: through the scrape operators read, each answer
// from memory is exactly one cache hit, one journal record (its terminal
// one) and one done job; a reserve record covers many answers.
func TestCachedValencyMetrics(t *testing.T) {
	_, hs := newTestServer(t, Options{AtlasDir: t.TempDir()})
	postValency(t, hs.URL, hotRequest) // builds the atlas
	postValency(t, hs.URL, hotRequest) // the first answer from memory also reserves IDs
	// The queued job's terminal record may trail its answer.
	waitFor(t, "terminal records", func() bool {
		return scrapeCounter(t, hs.URL, `flpserve_journal_records_total{type="terminal"}`) == 2
	})
	samples := []string{
		`flpserve_atlas_cache_lookups_total{outcome="hit"}`,
		`flpserve_atlas_cache_lookups_total{outcome="miss"}`,
		`flpserve_atlas_cache_lookups_total{outcome="merged"}`,
		`flpserve_checkpoint_ops_total{outcome="write"}`,
		`flpserve_journal_records_total{type="accepted"}`,
		`flpserve_journal_records_total{type="started"}`,
		`flpserve_journal_records_total{type="event"}`,
		`flpserve_journal_records_total{type="terminal"}`,
		`flpserve_journal_records_total{type="reserve"}`,
		`flpserve_jobs_total{kind="valency",state="done"}`,
	}
	scrape := func() []float64 {
		out := make([]float64, len(samples))
		for i, s := range samples {
			out[i] = scrapeCounter(t, hs.URL, s)
		}
		return out
	}
	before := scrape()
	if before[8] != 1 {
		t.Fatalf("%v reserve records after the first answer from memory, want 1", before[8])
	}
	const k = 5
	for i := 0; i < k; i++ {
		postValency(t, hs.URL, hotRequest)
	}
	after := scrape()
	want := []float64{k, 0, 0, k, 0, 0, 0, k, 0, k}
	for i, s := range samples {
		if d := after[i] - before[i]; d != want[i] {
			t.Errorf("%s moved by %v over %d answers from memory, want %v", s, d, k, want[i])
		}
	}
}

// BenchmarkServeHotValency is one answer from memory over a real loopback
// socket, with the job journal on disk: the request 80 % of serve-mixed
// sends.
func BenchmarkServeHotValency(b *testing.B) {
	s, err := New(Options{AtlasDir: b.TempDir()})
	if err != nil {
		b.Fatal(err)
	}
	defer s.Drain()
	hs := httptest.NewServer(s.Handler())
	defer hs.Close()
	postValency(b, hs.URL, hotRequest)
	postValency(b, hs.URL, hotRequest)
	body, err := json.Marshal(hotRequest)
	if err != nil {
		b.Fatal(err)
	}
	client := hs.Client()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		resp, err := client.Post(hs.URL+"/v1/valency?wait=1", "application/json", bytes.NewReader(body))
		if err != nil {
			b.Fatal(err)
		}
		if _, err := io.Copy(io.Discard, resp.Body); err != nil {
			b.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			b.Fatalf("status %d", resp.StatusCode)
		}
	}
}
