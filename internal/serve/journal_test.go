package serve

import (
	"bufio"
	"encoding/json"
	"errors"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// The journal suite pins the restart semantics of tentpole part 3: with
// -atlas-dir set, a crashed server's jobs survive — finished ones as
// queryable history, queued and running ones re-admitted under their
// original IDs and re-run — and the event streams replay pre-crash
// progress before following the re-run.

// TestServerJobJournalRestart is the main restart contract. One server
// lifetime accepts a finished job, a running job, and a queued job, then
// "crashes" (no drain — drains write terminal records; a crash writes
// nothing). The second lifetime over the same directory must answer for
// all three.
func TestServerJobJournalRestart(t *testing.T) {
	dir := t.TempDir()
	census := CensusRequest{Protocol: "naivemajority", N: 3}

	// Lifetime one: worker pool of 1, so a blocker pins the pool and the
	// job behind it stays queued.
	s1, hs1 := newTestServer(t, Options{Workers: 1, AtlasDir: dir, Log: t.Logf})
	var done JobView
	postJSON(t, hs1.URL+"/v1/census?wait=1", census, &done)
	if done.State != StateDone {
		t.Fatalf("first job state %q, want done", done.State)
	}

	release := make(chan struct{})
	t.Cleanup(func() { close(release) }) // unblock lifetime one's pool worker at test end
	blocker, err := s1.queue.Submit(KindCensus, census, func(pub func(string), _ func() bool) (any, error) {
		pub("working on it")
		<-release
		return nil, errCanceled
	})
	if err != nil {
		t.Fatal(err)
	}
	waitFor(t, "blocker running", func() bool { return blocker.State() == StateRunning })

	var queued JobView
	postJSON(t, hs1.URL+"/v1/census", census, &queued)
	if queued.State != StateQueued {
		t.Fatalf("third job state %q, want queued behind the blocker", queued.State)
	}
	hs1.Close() // crash: no drain, the journal is all that survives

	// Lifetime two: same directory, fresh process state.
	_, hs2 := newTestServer(t, Options{Workers: 2, AtlasDir: dir, Log: t.Logf})

	// The finished job answers from history, result intact, same ID.
	var view struct {
		State  JobState     `json:"state"`
		Result CensusResult `json:"result"`
	}
	getJSON(t, hs2.URL+"/v1/jobs/"+done.ID, &view)
	if view.State != StateDone || view.Result.N != 3 || len(view.Result.PerInput) != 8 {
		t.Fatalf("replayed job %s: state %q result %+v", done.ID, view.State, view.Result)
	}

	// The running and queued jobs were re-admitted under their original
	// IDs and re-run to completion — the rebuilt body is the real census,
	// not the closure the crash interrupted.
	for _, id := range []string{blocker.ID, queued.ID} {
		var rv struct {
			State  JobState     `json:"state"`
			Error  string       `json:"error"`
			Result CensusResult `json:"result"`
		}
		getJSON(t, hs2.URL+"/v1/jobs/"+id+"?wait=1", &rv)
		if rv.State != StateDone || rv.Result.N != 3 || len(rv.Result.PerInput) != 8 {
			t.Fatalf("re-admitted job %s: state %q error %q", id, rv.State, rv.Error)
		}
	}

	// The event stream for the interrupted job replays its pre-crash
	// progress, then the re-admission marker, then the re-run.
	eresp, err := http.Get(hs2.URL + "/v1/jobs/" + blocker.ID + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer eresp.Body.Close()
	var msgs []string
	sc := bufio.NewScanner(eresp.Body)
	for sc.Scan() {
		var ev struct {
			Msg string `json:"msg"`
			ID  string `json:"id"`
		}
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			t.Fatalf("bad NDJSON line %q: %v", sc.Text(), err)
		}
		if ev.ID != "" {
			break // terminal job view closes the stream
		}
		msgs = append(msgs, ev.Msg)
	}
	if len(msgs) < 3 || msgs[0] != "working on it" || msgs[1] != "job re-admitted after server restart" {
		t.Fatalf("event stream did not replay pre-crash events before the re-run: %q", msgs)
	}

	// ID stability: the restarted server's counter starts past every
	// journaled ID, so new submissions never collide.
	var fresh JobView
	postJSON(t, hs2.URL+"/v1/census", census, &fresh)
	if fresh.ID != "census-4" {
		t.Fatalf("first post-restart submission got ID %q, want census-4 (continuing the journaled sequence)", fresh.ID)
	}

	// The checkpoint-ops counters tell the recovery story on /metrics.
	if got := scrapeCounter(t, hs2.URL, `flpserve_checkpoint_ops_total{outcome="resume"}`); got != 2 {
		t.Errorf("resume counter %v, want 2 (the running and the queued job)", got)
	}
	if got := scrapeCounter(t, hs2.URL, `flpserve_checkpoint_ops_total{outcome="skip"}`); got != 1 {
		t.Errorf("skip counter %v, want 1 (the finished job)", got)
	}
	if got := scrapeCounter(t, hs2.URL, `flpserve_checkpoint_ops_total{outcome="write"}`); got == 0 {
		t.Error("write counter is zero after journaled activity")
	}
	if got := scrapeCounter(t, hs2.URL, `flpserve_journal_records_total{type="accepted"}`); got == 0 {
		t.Error("no accepted records counted in lifetime two")
	}
}

// TestServerJournalCorruptTail pins crash-mid-append recovery: a partial
// final line is detected, logged, counted, and truncated; everything
// durable before it replays normally.
func TestServerJournalCorruptTail(t *testing.T) {
	dir := t.TempDir()
	census := CensusRequest{Protocol: "naivemajority", N: 3}

	s1, hs1 := newTestServer(t, Options{AtlasDir: dir, Log: t.Logf})
	var done JobView
	postJSON(t, hs1.URL+"/v1/census?wait=1", census, &done)
	if done.State != StateDone {
		t.Fatalf("job state %q", done.State)
	}
	s1.Drain()
	hs1.Close()

	path := filepath.Join(dir, "jobs.journal")
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString(`{"rec":"accepted","id":"census-9","ki`); err != nil {
		t.Fatal(err)
	}
	f.Close()
	before, _ := os.Stat(path)

	_, hs2 := newTestServer(t, Options{AtlasDir: dir, Log: t.Logf})
	var view JobView
	getJSON(t, hs2.URL+"/v1/jobs/"+done.ID, &view)
	if view.State != StateDone {
		t.Fatalf("replay after tail corruption lost job %s: state %q", done.ID, view.State)
	}
	if got := scrapeCounter(t, hs2.URL, `flpserve_checkpoint_ops_total{outcome="corrupt"}`); got != 1 {
		t.Errorf("corrupt counter %v, want 1", got)
	}
	after, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if after.Size() >= before.Size() {
		t.Errorf("damaged tail not truncated: %d bytes before restart, %d after", before.Size(), after.Size())
	}
}

// TestFinishJournalsBeforePublishing pins the finish order: a job's terminal
// state becomes observable only after its terminal record is in the journal.
// The test holds the journal's lock so that append blocks; until it is
// released, Done stays open and GET reports the job still running.
func TestFinishJournalsBeforePublishing(t *testing.T) {
	s, hs := newTestServer(t, Options{Workers: 1, AtlasDir: t.TempDir(), Log: t.Logf})
	entered := make(chan struct{})
	release := make(chan struct{})
	j, err := s.queue.Submit(KindCensus, nil, func(func(string), func() bool) (any, error) {
		close(entered) // the started record is already appended
		<-release
		return "answer", nil
	})
	if err != nil {
		t.Fatal(err)
	}
	<-entered

	s.jnl.mu.Lock()
	close(release)
	select {
	case <-j.Done():
		s.jnl.mu.Unlock()
		t.Fatal("job published a terminal state before its terminal record was journaled")
	case <-time.After(100 * time.Millisecond):
	}
	var view JobView
	getJSON(t, hs.URL+"/v1/jobs/"+j.ID, &view)
	s.jnl.mu.Unlock()
	if view.State.terminal() {
		t.Fatalf("GET reported %q while the terminal record was still unwritten", view.State)
	}

	<-j.Done()
	if got := s.jnl.recordsTotal(recTerminal); got != 1 {
		t.Fatalf("%d terminal records after finish, want 1", got)
	}
	j.finish(StateFailed, nil, errors.New("second finish"))
	if j.State() != StateDone || s.jnl.recordsTotal(recTerminal) != 1 {
		t.Fatalf("a second finish changed the job: state %q, %d terminal records", j.State(), s.jnl.recordsTotal(recTerminal))
	}
}

// TestServerJournalUnrebuildableJob pins the never-silently-dropped rule: a
// journaled job whose body cannot be rebuilt (unknown kind) comes back as a
// failed job with the reason, not a 404.
func TestServerJournalUnrebuildableJob(t *testing.T) {
	dir := t.TempDir()
	line := `{"rec":"accepted","id":"bogus-1","kind":"bogus","req":{},"time":"2026-08-08T00:00:00Z"}` + "\n"
	if err := os.WriteFile(filepath.Join(dir, "jobs.journal"), []byte(line), 0o644); err != nil {
		t.Fatal(err)
	}
	_, hs := newTestServer(t, Options{AtlasDir: dir, Log: t.Logf})
	var view JobView
	getJSON(t, hs.URL+"/v1/jobs/bogus-1", &view)
	if view.State != StateFailed || !strings.Contains(view.Error, "unrecoverable after restart") {
		t.Fatalf("unrebuildable job: state %q error %q", view.State, view.Error)
	}
	if got := scrapeCounter(t, hs.URL, `flpserve_checkpoint_ops_total{outcome="corrupt"}`); got != 1 {
		t.Errorf("corrupt counter %v, want 1", got)
	}
}

// TestServerJournalRetiredFieldNotRerun: a journaled, unfinished job whose
// request names a field the schema no longer has (a valency's depth, a
// census's workers) is rebuilt by the door's strict rule, so it comes back
// failed, counted as corrupt, and is never re-run without the field.
func TestServerJournalRetiredFieldNotRerun(t *testing.T) {
	for _, tc := range []struct{ id, field, line string }{
		{"valency-1", "depth", `{"rec":"accepted","id":"valency-1","kind":"valency","req":{"protocol":"naivemajority","n":3,"inputs":[0,1,1],"depth":3},"time":"2026-08-08T00:00:00Z"}`},
		{"census-1", "workers", `{"rec":"accepted","id":"census-1","kind":"census","req":{"protocol":"naivemajority","n":3,"workers":4},"time":"2026-08-08T00:00:00Z"}`},
	} {
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, "jobs.journal"), []byte(tc.line+"\n"), 0o644); err != nil {
			t.Fatal(err)
		}
		_, hs := newTestServer(t, Options{AtlasDir: dir, Log: t.Logf})
		var view JobView
		getJSON(t, hs.URL+"/v1/jobs/"+tc.id, &view)
		if view.State != StateFailed || !strings.Contains(view.Error, "unrecoverable after restart") || !strings.Contains(view.Error, `"`+tc.field+`"`) {
			t.Fatalf("journaled %s job: state %q error %q", tc.field, view.State, view.Error)
		}
		for outcome, want := range map[string]float64{"corrupt": 1, "resume": 0} {
			if got := scrapeCounter(t, hs.URL, `flpserve_checkpoint_ops_total{outcome="`+outcome+`"}`); got != want {
				t.Errorf("%s job: %s counter %v, want %v", tc.field, outcome, got, want)
			}
		}
	}
}
