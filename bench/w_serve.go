package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"github.com/flpsim/flp/internal/explore"
	"github.com/flpsim/flp/internal/model"
	"github.com/flpsim/flp/internal/serve"
)

// serveProtocols are generated three-process protocols whose reachable
// graph is finite and holds 650–1 000 configurations from every root: big
// enough that a cold build costs two orders of magnitude more than a cached
// answer, alike enough that the cold class is one class, and small enough
// that one pass builds all 96 roots.
var serveProtocols = []string{
	"gen:d1:30:ttable.n3.p4.r2.a2.dn70.ms2.ds0.mr1",  // 823 configs per root
	"gen:d1:57:ttable.n3.p4.r2.a2.dn70.ms2.ds0.mr1",  // 729
	"gen:d1:72:ttable.n3.p4.r2.a2.dn70.ms2.ds0.mr1",  // 729
	"gen:d1:90:ttable.n3.p4.r2.a2.dn70.ms2.ds0.mr1",  // 648
	"gen:d1:19:ttable.n3.p5.r2.a2.dn60.ms2.ds1.mr1",  // 756
	"gen:d1:100:ttable.n3.p5.r2.a2.dn60.ms2.ds1.mr1", // 668
	"gen:d1:120:ttable.n3.p5.r2.a2.dn60.ms2.ds1.mr1", // 1000
	"gen:d1:125:ttable.n3.p5.r2.a2.dn60.ms2.ds1.mr1", // 907
	"gen:d1:187:ttable.n3.p5.r2.a2.dn60.ms2.ds1.mr1", // 891
	"gen:d1:1:ttable.n3.p3.r2.a2.dn80.ms3.ds0.mr1",   // 787–803
	"gen:d1:65:ttable.n3.p3.r2.a2.dn80.ms3.ds0.mr1",  // 659
	"gen:d1:67:ttable.n3.p3.r2.a2.dn80.ms3.ds0.mr1",  // 717–733
}

const (
	// serveBudget clears every serveProtocols graph, so each atlas is
	// complete and the store persists and reloads it whole.
	serveBudget = 4000
	// serveRepeats hot requests follow each root's warm one: 1 cold + 1
	// warm + 8 hot is the 10/10/80 mix.
	serveRepeats = 8
	coldClients  = 2
)

type serveRoot struct {
	id   string
	body []byte // the POST /v1/valency request
	pr   model.Protocol
	in   model.Inputs
}

type serveMixed struct {
	verifier
	roots   []serveRoot
	cold    []int // root indices, cold-phase order
	warmHot []int // root indices, restart-phase order: a root's first occurrence is its warm op
	client  *http.Client
	dir     string
	passes  int

	// scraped accumulates the /metrics counters of every server a traced
	// pass ran (each server's counters start at zero, so its final scrape
	// is its delta); requests counts the ops they cover.
	scraped  counters
	requests int
}

func newServeMixed(cfg config) (workload, error) {
	w := &serveMixed{
		verifier: verifier{"serve-mixed", cfg.golden},
		client:   &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: coldClients}},
		scraped:  counters{},
	}
	names := serveProtocols
	if cfg.smoke {
		names = names[:1]
	}
	for _, name := range names {
		pr, err := lookupProtocol(name, 3)
		if err != nil {
			return nil, err
		}
		for _, in := range model.AllInputs(3) {
			raw := make([]int, len(in))
			for i, v := range in {
				raw[i] = int(v)
			}
			body, err := json.Marshal(serve.ValencyRequest{Protocol: name, N: 3, Inputs: raw, Budget: serveBudget})
			if err != nil {
				return nil, err
			}
			w.roots = append(w.roots, serveRoot{id: name + "/" + in.String(), body: body, pr: pr, in: in})
		}
	}
	w.cold = shuffled(cfg.seed, len(w.roots))
	for _, i := range shuffled(cfg.seed+1, len(w.roots)*(1+serveRepeats)) {
		w.warmHot = append(w.warmHot, i%len(w.roots))
	}
	return w, nil
}

func (w *serveMixed) boot(dir string) error {
	w.dir = dir
	return nil
}

func (w *serveMixed) shutdown() { w.client.CloseIdleConnections() }

// valencyDigest digests a served (or oracle) valency answer.
func valencyDigest(r serve.ValencyResult) string {
	return digestOf(r.Protocol, r.Inputs, r.Valency, r.Exact, r.Visited, r.Complete, r.Witness0, r.Witness1)
}

// post issues one blocking valency query and digests the answer. Anything
// but 200 + state "done" is an error.
func (w *serveMixed) post(s scope, base string, r serveRoot) (string, error) {
	_, end := s.begin("serve.POST /v1/valency")
	defer end()
	resp, err := w.client.Post(base+"/v1/valency?wait=1", "application/json", bytes.NewReader(r.body))
	if err != nil {
		return "", err
	}
	defer resp.Body.Close()
	var view struct {
		State  string              `json:"state"`
		Error  string              `json:"error"`
		Result serve.ValencyResult `json:"result"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&view); err != nil {
		return "", err
	}
	if resp.StatusCode != http.StatusOK || view.State != "done" {
		return "", fmt.Errorf("status %d, state %q, error %q", resp.StatusCode, view.State, view.Error)
	}
	return valencyDigest(view.Result), nil
}

// server is one flpserve lifetime on the pass's directory.
type server struct {
	srv *serve.Server
	ts  *httptest.Server
}

// start boots flpserve on dir; state says whether dir is "empty" or
// "populated" by an earlier server, which is what boot time depends on.
func (w *serveMixed) start(s scope, dir, state string) (*server, error) {
	_, end := s.begin("serve.New(" + state + ")")
	srv, err := serve.New(serve.Options{Workers: 2, AtlasDir: dir})
	end()
	if err != nil {
		return nil, err
	}
	return &server{srv, httptest.NewServer(srv.Handler())}, nil
}

// stop drains and closes a server. A traced pass scrapes /metrics between
// the two: the page keeps serving after Drain, and only then has every job's
// last journal record been counted.
func (w *serveMixed) stop(s scope, sv *server, requests int) {
	_, end := s.begin("serve.Drain")
	sv.srv.Drain()
	end()
	if s.tr != nil {
		if c, err := scrape(w.client, sv.ts.URL+"/metrics"); err == nil {
			w.scraped.add(c)
			w.requests += requests
		}
	}
	sv.ts.Close()
	w.client.CloseIdleConnections()
}

// pass is one day in the life of flpserve on a fresh empty directory: the
// cold phase answers every root for the first time (store miss → build →
// persist → journal) under two clients; the server restarts on the same
// directory (journal replay, store open); then one client asks for each
// root again (memory miss, store hit: warm) and eight more times (memory
// hit: hot), interleaved. One client in the latency-bound phase, because
// with two the sub-millisecond median measures the Go scheduler.
func (w *serveMixed) pass(tr *tracer) passResult {
	w.passes++
	dir := filepath.Join(w.dir, fmt.Sprintf("pass-%d", w.passes))
	n := len(w.cold) + len(w.warmHot)
	res := passResult{samples: make([]sample, n)}
	fail := func(err error) passResult {
		fmt.Fprintf(os.Stderr, "serve-mixed: %v\n", err)
		for i := range res.samples {
			res.samples[i] = sample{class: "cold", failed: true}
		}
		return res
	}
	if err := os.Mkdir(dir, 0o755); err != nil {
		return fail(err)
	}
	defer os.RemoveAll(dir)
	start := time.Now()
	root := scope{tr: tr}

	sv, err := w.start(root, dir, "empty")
	if err != nil {
		return fail(err)
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	for c := 0; c < coldClients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(w.cold) {
					return
				}
				r := w.roots[w.cold[i]]
				res.samples[i] = timeOp(tr, "cold", func(s scope) bool {
					d, err := w.post(s, sv.ts.URL, r)
					return w.ok(r.id, d, err)
				})
			}
		}()
	}
	wg.Wait()
	w.stop(root, sv, len(w.cold))

	if sv, err = w.start(root, dir, "populated"); err != nil {
		return fail(err)
	}
	seen := make([]bool, len(w.roots))
	for i, ri := range w.warmHot {
		class := "hot"
		if !seen[ri] {
			class, seen[ri] = "warm", true
		}
		r := w.roots[ri]
		res.samples[len(w.cold)+i] = timeOp(tr, class, func(s scope) bool {
			d, err := w.post(s, sv.ts.URL, r)
			return w.ok(r.id, d, err)
		})
	}
	w.stop(root, sv, len(w.warmHot))
	res.wall = time.Since(start)
	return res
}

// oracleValency is the answer the server must give for a root, computed by
// the sequential engine with no cache, store or HTTP in the way.
func oracleValency(pr model.Protocol, in model.Inputs) (serve.ValencyResult, error) {
	c, err := model.Initial(pr, in)
	if err != nil {
		return serve.ValencyResult{}, err
	}
	info := explore.ClassifyRootCached(pr, c, explore.Options{MaxConfigs: serveBudget, Workers: 1}, explore.NewAtlasCache())
	r := serve.ValencyResult{
		Protocol: pr.Name(), Inputs: in.String(), Valency: info.Valency.String(),
		Exact: info.Exact, Visited: info.Visited, Complete: info.Complete,
	}
	if len(info.Witness0) > 0 {
		r.Witness0 = info.Witness0.String()
	}
	if len(info.Witness1) > 0 {
		r.Witness1 = info.Witness1.String()
	}
	return r, nil
}

func (w *serveMixed) oracle() (map[string]string, error) {
	out := map[string]string{}
	for _, r := range w.roots {
		v, err := oracleValency(r.pr, r.in)
		if err != nil {
			return nil, err
		}
		out[r.id] = valencyDigest(v)
	}
	return out, nil
}
