package promtext

import (
	"io"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
)

// scrape renders the registry through its HTTP handler, the way a real
// Prometheus server reads it.
func scrape(t *testing.T, r *Registry) string {
	t.Helper()
	rec := httptest.NewRecorder()
	r.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	if ct := rec.Header().Get("Content-Type"); !strings.HasPrefix(ct, "text/plain; version=0.0.4") {
		t.Fatalf("content type %q", ct)
	}
	b, _ := io.ReadAll(rec.Result().Body)
	return string(b)
}

// TestExposition pins the exact text format for every metric kind.
func TestExposition(t *testing.T) {
	r := NewRegistry()
	c := NewCounterVec(r, "jobs_total", "Jobs processed.").With()
	c.Add(3)
	cv := NewCounterVec(r, "requests_total", "Requests by endpoint.", "endpoint", "code")
	cv.With("/v1/census", "200").Inc()
	cv.With("/v1/census", "200").Inc()
	cv.With("/v1/valency", "503").Inc()
	g := NewGauge(r, "queue_depth", "Jobs queued.")
	g.Set(5)
	g.Dec()
	h := NewHistogramVec(r, "latency_seconds", "Request latency.", []float64{0.1, 1}).With()
	h.Observe(0.05)
	h.Observe(0.5)
	h.Observe(2)
	NewCounterFuncVec(r, "cache_lookups_total", "Cache lookups.", "result").
		With(func() int64 { return 9 }, "hit")

	want := strings.Join([]string{
		"# HELP jobs_total Jobs processed.",
		"# TYPE jobs_total counter",
		"jobs_total 3",
		"# HELP requests_total Requests by endpoint.",
		"# TYPE requests_total counter",
		`requests_total{endpoint="/v1/census",code="200"} 2`,
		`requests_total{endpoint="/v1/valency",code="503"} 1`,
		"# HELP queue_depth Jobs queued.",
		"# TYPE queue_depth gauge",
		"queue_depth 4",
		"# HELP latency_seconds Request latency.",
		"# TYPE latency_seconds histogram",
		`latency_seconds_bucket{le="0.1"} 1`,
		`latency_seconds_bucket{le="1"} 2`,
		`latency_seconds_bucket{le="+Inf"} 3`,
		"latency_seconds_sum 2.55",
		"latency_seconds_count 3",
		"# HELP cache_lookups_total Cache lookups.",
		"# TYPE cache_lookups_total counter",
		`cache_lookups_total{result="hit"} 9`,
		"",
	}, "\n")
	if got := scrape(t, r); got != want {
		t.Fatalf("exposition mismatch:\n--- got ---\n%s\n--- want ---\n%s", got, want)
	}
}

// TestHistogramVecLabels pins that the le label composes with family
// labels and that series order is deterministic (sorted) at scrape.
func TestHistogramVecLabels(t *testing.T) {
	r := NewRegistry()
	hv := NewHistogramVec(r, "job_seconds", "Job duration.", []float64{1}, "kind")
	hv.With("valency").Observe(0.5)
	hv.With("census").Observe(3)

	out := scrape(t, r)
	for _, line := range []string{
		`job_seconds_bucket{kind="census",le="1"} 0`,
		`job_seconds_bucket{kind="census",le="+Inf"} 1`,
		`job_seconds_bucket{kind="valency",le="1"} 1`,
		`job_seconds_count{kind="valency"} 1`,
	} {
		if !strings.Contains(out, line+"\n") {
			t.Errorf("scrape missing %q in:\n%s", line, out)
		}
	}
	if strings.Index(out, `kind="census"`) > strings.Index(out, `kind="valency"`) {
		t.Error("series not sorted by label rendering")
	}
}

// TestLabelEscaping pins the escaping rules for label values.
func TestLabelEscaping(t *testing.T) {
	r := NewRegistry()
	cv := NewCounterVec(r, "odd_total", "h", "l")
	cv.With(`a"b\c` + "\n").Inc()
	want := `odd_total{l="a\"b\\c\n"} 1`
	if out := scrape(t, r); !strings.Contains(out, want+"\n") {
		t.Fatalf("scrape missing %q in:\n%s", want, out)
	}
}

// TestConcurrentObserve exercises the lock-free paths under the race
// detector: concurrent counter adds and histogram observations must not
// lose updates.
func TestConcurrentObserve(t *testing.T) {
	r := NewRegistry()
	c := NewCounterVec(r, "c_total", "h").With()
	h := NewHistogramVec(r, "h_seconds", "h", []float64{0.5}).With()
	var wg sync.WaitGroup
	const G, N = 8, 1000
	for g := 0; g < G; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < N; i++ {
				c.Inc()
				h.Observe(0.25)
			}
		}()
	}
	wg.Wait()
	if c.Value() != G*N {
		t.Fatalf("counter lost updates: %d != %d", c.Value(), G*N)
	}
	if h.Count() != G*N {
		t.Fatalf("histogram lost updates: %d != %d", h.Count(), G*N)
	}
	if got, want := h.Sum(), float64(G*N)*0.25; got != want {
		t.Fatalf("histogram sum %v != %v", got, want)
	}
}

// TestDuplicateRegistrationPanics pins the double-registration guard.
func TestDuplicateRegistrationPanics(t *testing.T) {
	r := NewRegistry()
	NewCounterVec(r, "dup_total", "h")
	defer func() {
		if recover() == nil {
			t.Fatal("duplicate registration did not panic")
		}
	}()
	NewCounterVec(r, "dup_total", "h")
}
