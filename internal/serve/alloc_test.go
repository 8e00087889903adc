//go:build !race

// Allocation counts do not repeat under -race, where sync.Pool drops items
// at random.

package serve

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"
)

// hotRecorderRequest drives one hot valency request through the handler
// tree with no socket, and fails unless it was answered done.
func hotRecorderRequest(t *testing.T, h http.Handler, body []byte) {
	req := httptest.NewRequest(http.MethodPost, "/v1/valency?wait=1", bytes.NewReader(body))
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		t.Fatalf("hot request: status %d, body %s", rec.Code, rec.Body)
	}
}

// TestAllocsServeHotValency pins what one answer from memory allocates
// end to end through Handler() — request decode, protocol and root
// resolution, the cache lookup, the result, its journal record, the job and
// the response — plus the recorder and request the test builds around it.
// Measured 112 on the naivemajority(3) fixture; the same request took the
// queue before, at 128.
func TestAllocsServeHotValency(t *testing.T) {
	s, err := New(Options{AtlasDir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Drain()
	body, err := json.Marshal(hotRequest)
	if err != nil {
		t.Fatal(err)
	}
	h := s.Handler()
	hotRecorderRequest(t, h, body) // builds the atlas
	hotRecorderRequest(t, h, body) // reserves IDs
	allocs := testing.AllocsPerRun(200, func() { hotRecorderRequest(t, h, body) })
	const ceiling = 123 // measured + 10 %
	t.Logf("%.1f allocs per hot request", allocs)
	if allocs > ceiling {
		t.Fatalf("hot valency request allocates %.1f/op, ceiling %d", allocs, ceiling)
	}
}
