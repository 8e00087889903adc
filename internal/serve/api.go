package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"

	"github.com/flpsim/flp/internal/adversary"
	"github.com/flpsim/flp/internal/explore"
	"github.com/flpsim/flp/internal/model"
	"github.com/flpsim/flp/internal/protocols"
)

// API layer: request schemas, their translation onto the exploration
// engines, and the HTTP handlers. Census is explore.Census through
// ClassifyRootCached, valency is ClassifyRootCached on one root, and the
// adversary is adversary.New(...).Run(), with adversary.ForUnbounded on an
// unbounded protocol. At the same budget a served census therefore equals
// the Lemma 2 table flpcheck prints for a bounded protocol — valency,
// exactness and visited count — and explore.CensusInitial's. flpcheck
// classifies an unbounded protocol (protocols.Unbounded) with directed
// probes, which a served census does not use. The shared atlas cache
// changes only what an answer costs.
//
// No request sets a worker count: every job explores at GOMAXPROCS workers
// (the engine default), and a body naming workers is refused as any
// unknown field is.

// CensusRequest asks for a Lemma 2 initial-valency census: every 2^N input
// assignment classified.
type CensusRequest struct {
	Protocol string `json:"protocol"`
	N        int    `json:"n"`
	// Budget bounds each root's exploration (MaxConfigs); 0 means the
	// engine default.
	Budget int `json:"budget,omitempty"`
}

// CensusRow is one input assignment's classification.
type CensusRow struct {
	Inputs  string `json:"inputs"`
	Valency string `json:"valency"`
	Exact   bool   `json:"exact"`
	Visited int    `json:"visited"`
}

// CensusResult is the census answer.
type CensusResult struct {
	Protocol string         `json:"protocol"`
	N        int            `json:"n"`
	PerInput []CensusRow    `json:"per_input"`
	Counts   map[string]int `json:"counts"`
	Bivalent string         `json:"bivalent,omitempty"` // first bivalent inputs, if any
	AllExact bool           `json:"all_exact"`
}

// ValencyRequest asks for one root's classification.
type ValencyRequest struct {
	Protocol string `json:"protocol"`
	N        int    `json:"n"`
	// Inputs is the initial input assignment, one 0/1 per process.
	Inputs []int `json:"inputs"`
	Budget int   `json:"budget,omitempty"`
}

// ValencyResult is the classification answer, witnesses included.
type ValencyResult struct {
	Protocol string `json:"protocol"`
	Inputs   string `json:"inputs"`
	Valency  string `json:"valency"`
	Exact    bool   `json:"exact"`
	Visited  int    `json:"visited"`
	Complete bool   `json:"complete"`
	Witness0 string `json:"witness0,omitempty"`
	Witness1 string `json:"witness1,omitempty"`
}

// AdversaryRequest asks for a Theorem 1 non-deciding run construction.
type AdversaryRequest struct {
	Protocol string `json:"protocol"`
	N        int    `json:"n"`
	// Stages is how many queue services to run; 0 means the adversary
	// default (30).
	Stages int `json:"stages,omitempty"`
	// Inputs, when present, names the starting assignment (which must be
	// bivalent); otherwise the first bivalent initial configuration is
	// located per Lemma 2.
	Inputs []int `json:"inputs,omitempty"`
}

// AdversaryResult is the constructed run, independently verified.
type AdversaryResult struct {
	Protocol           string      `json:"protocol"`
	Inputs             string      `json:"inputs"`
	Stages             int         `json:"stages"`
	Steps              int         `json:"steps"`
	DecidedCount       int         `json:"decided_count"`
	MinStepsPerProcess int         `json:"min_steps_per_process"`
	Rotations          int         `json:"rotations"`
	StepsPerProcess    map[int]int `json:"steps_per_process"`
	Verified           bool        `json:"verified"`
}

// apiError is the JSON error envelope.
type apiError struct {
	Error string `json:"error"`
}

// protocolKey names one resolution in Server.protocols.
type protocolKey struct {
	name string
	n    int
}

// resolveProtocol resolves a protocol exactly as the CLIs do
// (protocols.Resolve) and keeps what resolved, so each (name, n) pays its
// lookup once: a gen: name re-derives and re-validates its whole table on
// every resolution. An n that model.CheckInputsN refuses is refused on
// every endpoint, before any job work. Failures are not kept. Protocols
// are immutable; the engines and the atlas cache already share them
// across goroutines.
func (s *Server) resolveProtocol(name string, n int) (model.Protocol, error) {
	key := protocolKey{name, n}
	if pr, ok := s.protocols.Load(key); ok {
		return pr.(model.Protocol), nil
	}
	pr, err := protocols.Resolve(name, n)
	if err != nil {
		return nil, err
	}
	if err := model.CheckInputsN(pr.N()); err != nil {
		return nil, err
	}
	s.protocols.Store(key, pr)
	return pr, nil
}

// parseInputs converts a JSON input vector to the model's type.
func parseInputs(raw []int, n int) (model.Inputs, error) {
	if len(raw) != n {
		return nil, fmt.Errorf("inputs has %d values, want n=%d", len(raw), n)
	}
	in := make(model.Inputs, n)
	for i, v := range raw {
		switch v {
		case 0:
			in[i] = model.V0
		case 1:
			in[i] = model.V1
		default:
			return nil, fmt.Errorf("inputs[%d] = %d is not 0 or 1", i, v)
		}
	}
	return in, nil
}

// censusJob builds the job body for a census request: explore.Census with
// each root classified through the shared atlas cache, publishing each
// row as progress and stopping at a drain.
func (s *Server) censusJob(req CensusRequest) jobFunc {
	return func(pub func(string), canceled func() bool) (any, error) {
		pr, err := s.resolveProtocol(req.Protocol, req.N)
		if err != nil {
			return nil, err
		}
		opt := explore.Options{MaxConfigs: req.Budget}
		classify := func(c *model.Config, o explore.Options) explore.ValencyInfo {
			return explore.ClassifyRootCached(pr, c, o, s.atlases)
		}
		cut := false
		census, err := explore.Census(pr, opt, classify, func(iv explore.InitialValency) bool {
			pub(fmt.Sprintf("inputs %s: %s (%d configurations)", iv.Inputs, iv.Info.Valency, iv.Info.Visited))
			cut = canceled()
			return !cut
		})
		if err != nil {
			return nil, err
		}
		if cut {
			return nil, errCanceled
		}
		res := &CensusResult{
			Protocol: census.Protocol, N: census.N,
			Counts: make(map[string]int), AllExact: census.AllExact,
		}
		for _, iv := range census.PerInput {
			res.PerInput = append(res.PerInput, CensusRow{
				Inputs: iv.Inputs.String(), Valency: iv.Info.Valency.String(),
				Exact: iv.Info.Exact, Visited: iv.Info.Visited,
			})
		}
		for v, k := range census.Counts {
			res.Counts[v.String()] = k
		}
		if census.Bivalent != nil {
			res.Bivalent = census.Bivalent.Inputs.String()
		}
		return res, nil
	}
}

// valencyQuery is a valency request resolved onto the engine.
type valencyQuery struct {
	pr   model.Protocol
	in   model.Inputs
	root *model.Config
	opt  explore.Options
}

// resolveValency resolves req's protocol, inputs and root configuration.
func (s *Server) resolveValency(req ValencyRequest) (valencyQuery, error) {
	pr, err := s.resolveProtocol(req.Protocol, req.N)
	if err != nil {
		return valencyQuery{}, err
	}
	in, err := parseInputs(req.Inputs, pr.N())
	if err != nil {
		return valencyQuery{}, err
	}
	c, err := model.Initial(pr, in)
	if err != nil {
		return valencyQuery{}, err
	}
	opt := explore.Options{MaxConfigs: req.Budget}
	return valencyQuery{pr: pr, in: in, root: c, opt: opt}, nil
}

// progress is the one event a valency job publishes.
func (q valencyQuery) progress() string {
	return fmt.Sprintf("classifying %s root %s", q.pr.Name(), q.in)
}

// result renders the root's classification as the API answer.
func (q valencyQuery) result(info explore.ValencyInfo) *ValencyResult {
	res := &ValencyResult{
		Protocol: q.pr.Name(), Inputs: q.in.String(),
		Valency: info.Valency.String(), Exact: info.Exact,
		Visited: info.Visited, Complete: info.Complete,
	}
	if len(info.Witness0) > 0 {
		res.Witness0 = info.Witness0.String()
	}
	if len(info.Witness1) > 0 {
		res.Witness1 = info.Witness1.String()
	}
	return res
}

// valencyJob builds the job body for a single-root classification.
func (s *Server) valencyJob(req ValencyRequest) jobFunc {
	return func(pub func(string), canceled func() bool) (any, error) {
		q, err := s.resolveValency(req)
		if err != nil {
			return nil, err
		}
		pub(q.progress())
		return q.result(explore.ClassifyRootCached(q.pr, q.root, q.opt, s.atlases)), nil
	}
}

// cachedValency answers req at admission when the root's atlas is already
// in the shared cache's memory: the result and progress event valencyJob
// would produce, read off that atlas as ClassifyRootCached reads it. A
// request that does not resolve, or whose atlas is absent, refused or
// still building, reports false and is queued as before.
func (s *Server) cachedValency(req ValencyRequest) (json.RawMessage, string, bool) {
	q, err := s.resolveValency(req)
	if err != nil {
		return nil, "", false
	}
	atlas, ok := s.atlases.Cached(q.pr, q.root, q.opt)
	if !ok {
		return nil, "", false
	}
	raw, err := json.Marshal(q.result(atlas.InfoAt(0)))
	if err != nil {
		return nil, "", false
	}
	return raw, q.progress(), true
}

// adversaryJob builds the job body for a Theorem 1 construction. For
// progress, the run is produced in one-rotation chunks through
// adversary.Extend — documented to yield exactly what an uninterrupted
// longer run would — so the final result is byte-identical to a single
// Run with the full stage count, and a drain can cut the construction
// short at a rotation boundary.
func (s *Server) adversaryJob(req AdversaryRequest) jobFunc {
	return func(pub func(string), canceled func() bool) (any, error) {
		pr, err := s.resolveProtocol(req.Protocol, req.N)
		if err != nil {
			return nil, err
		}
		stages := req.Stages
		if stages <= 0 {
			stages = 30
		}
		opt := adversary.Options{Atlases: s.atlases}
		if protocols.Unbounded(req.Protocol) {
			opt = adversary.ForUnbounded(opt)
		}
		chunk := pr.N() // one full queue rotation per chunk
		if chunk > stages {
			chunk = stages
		}
		opt.Stages = chunk
		adv := adversary.New(pr, opt)

		var res *adversary.Result
		if len(req.Inputs) > 0 {
			in, err := parseInputs(req.Inputs, pr.N())
			if err != nil {
				return nil, err
			}
			res, err = adv.RunFromInputs(in)
			if err != nil {
				return nil, err
			}
		} else {
			res, err = adv.Run()
			if err != nil {
				return nil, err
			}
		}
		pub(fmt.Sprintf("bivalent initial configuration %s; %d/%d stages", res.Inputs, len(res.Stages), stages))
		for len(res.Stages) < stages {
			if canceled() {
				pub(fmt.Sprintf("drain: stopping after %d stages", len(res.Stages)))
				break
			}
			next := stages - len(res.Stages)
			if next > chunk {
				next = chunk
			}
			if res, err = adv.Extend(res, next); err != nil {
				return nil, err
			}
			pub(fmt.Sprintf("%d/%d stages, %d steps, final configuration bivalent", len(res.Stages), stages, res.Steps()))
		}

		rep, err := adversary.Verify(pr, res)
		if err != nil {
			return nil, fmt.Errorf("verification failed: %w", err)
		}
		spp := make(map[int]int, len(rep.StepsPerProcess))
		for p, k := range rep.StepsPerProcess {
			spp[int(p)] = k
		}
		return &AdversaryResult{
			Protocol: res.Protocol, Inputs: res.Inputs.String(),
			Stages: rep.Stages, Steps: rep.Steps, DecidedCount: rep.DecidedCount,
			MinStepsPerProcess: rep.MinStepsPerProcess, Rotations: rep.Rotations,
			StepsPerProcess: spp, Verified: true,
		}, nil
	}
}

// jobBody rebuilds a job's body from its journaled admission record — the
// restart-side counterpart of the mk closures the handlers pass to submit.
// Job bodies are pure engine queries, so a rebuilt body re-run after a
// crash returns exactly what the original would have.
func (s *Server) jobBody(kind JobKind, raw json.RawMessage) (jobFunc, error) {
	switch kind {
	case KindCensus:
		return rebuild(kind, raw, s.censusJob)
	case KindValency:
		return rebuild(kind, raw, s.valencyJob)
	case KindAdversary:
		return rebuild(kind, raw, s.adversaryJob)
	default:
		return nil, fmt.Errorf("unknown job kind %q", kind)
	}
}

// rebuild decodes a journaled request as the door does, so a request
// naming a field the schema no longer has is never run without it.
func rebuild[R any](kind JobKind, raw json.RawMessage, mk func(R) jobFunc) (jobFunc, error) {
	var req R
	if err := decodeRequest(bytes.NewReader(raw), &req); err != nil {
		return nil, fmt.Errorf("decoding journaled %s request: %w", kind, err)
	}
	return mk(req), nil
}

// decodeRequest decodes exactly one JSON value into req: a field req's
// type does not name, or any bytes after the value, is an error.
func decodeRequest(r io.Reader, req any) error {
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	err := dec.Decode(req)
	if _, tail := dec.Token(); err == nil && tail != io.EOF {
		err = fmt.Errorf("trailing data after the request object")
	}
	return err
}

// ---- HTTP handlers ----

// writeJSON writes v with the given status and counts the request.
func (s *Server) writeJSON(w http.ResponseWriter, endpoint string, code int, v any) {
	s.m.httpTotal.With(endpoint, strconv.Itoa(code)).Inc()
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(v)
}

// submit decodes a request body, admits the job, and answers 202 with the
// job's initial view — or 503 + Retry-After when draining or full. cached,
// when non-nil, is asked first: a request it answers from memory becomes a
// job that is done on admission, with no queue slot, so a full queue does
// not refuse it.
func submit[R any](s *Server, w http.ResponseWriter, r *http.Request, endpoint string, kind JobKind, mk func(R) jobFunc,
	cached func(R) (result json.RawMessage, progress string, ok bool)) {
	var req R
	if err := decodeRequest(r.Body, &req); err != nil {
		s.writeJSON(w, endpoint, http.StatusBadRequest, apiError{Error: "bad request body: " + err.Error()})
		return
	}
	var j *Job
	if cached != nil && !s.queue.Draining() {
		if result, progress, ok := cached(req); ok {
			j = s.queue.answered(kind, progress, result)
		}
	}
	if j == nil {
		var err error
		if j, err = s.queue.Submit(kind, req, mk(req)); err != nil {
			w.Header().Set("Retry-After", "1")
			s.writeJSON(w, endpoint, http.StatusServiceUnavailable, apiError{Error: err.Error()})
			return
		}
	}
	if r.URL.Query().Get("wait") == "1" {
		select {
		case <-j.Done():
		case <-r.Context().Done():
		}
		s.writeJSON(w, endpoint, http.StatusOK, j.View())
		return
	}
	w.Header().Set("Location", "/v1/jobs/"+j.ID)
	s.writeJSON(w, endpoint, http.StatusAccepted, j.View())
}

func (s *Server) handleCensus(w http.ResponseWriter, r *http.Request) {
	submit(s, w, r, "census", KindCensus, s.censusJob, nil)
}

// handleValency is the only endpoint with a cached answer: a valency is one
// atlas read, while a census reads 2^n atlases and an adversary run is a
// search.
func (s *Server) handleValency(w http.ResponseWriter, r *http.Request) {
	submit(s, w, r, "valency", KindValency, s.valencyJob, s.cachedValency)
}

func (s *Server) handleAdversary(w http.ResponseWriter, r *http.Request) {
	submit(s, w, r, "adversary", KindAdversary, s.adversaryJob, nil)
}

func (s *Server) handleJob(w http.ResponseWriter, r *http.Request) {
	j, ok := s.queue.Get(r.PathValue("id"))
	if !ok {
		s.writeJSON(w, "jobs", http.StatusNotFound, apiError{Error: "no such job"})
		return
	}
	if r.URL.Query().Get("wait") == "1" {
		select {
		case <-j.Done():
		case <-r.Context().Done():
		}
	}
	s.writeJSON(w, "jobs", http.StatusOK, j.View())
}

// handleJobEvents streams a job's progress as NDJSON (one JSON event per
// line, flushed as produced): full replay first, then follow until the job
// is terminal or the client goes away. The final line is the job view.
func (s *Server) handleJobEvents(w http.ResponseWriter, r *http.Request) {
	j, ok := s.queue.Get(r.PathValue("id"))
	if !ok {
		s.writeJSON(w, "events", http.StatusNotFound, apiError{Error: "no such job"})
		return
	}
	s.m.httpTotal.With("events", "200").Inc()
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.Header().Set("Cache-Control", "no-cache")
	w.WriteHeader(http.StatusOK)
	flusher, _ := w.(http.Flusher)
	enc := json.NewEncoder(w)
	next := 0
	for {
		evs, changed, terminal := j.EventsSince(next)
		for _, e := range evs {
			enc.Encode(e)
		}
		next += len(evs)
		if flusher != nil && len(evs) > 0 {
			flusher.Flush()
		}
		if terminal {
			enc.Encode(j.View())
			if flusher != nil {
				flusher.Flush()
			}
			return
		}
		select {
		case <-changed:
		case <-r.Context().Done():
			return
		}
	}
}

func (s *Server) handleProtocols(w http.ResponseWriter, r *http.Request) {
	s.writeJSON(w, "protocols", http.StatusOK, map[string]any{
		"protocols": protocols.Names(),
		"generated": "names with the gen: prefix are self-describing and resolve without registration",
	})
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	s.writeJSON(w, "healthz", http.StatusOK, map[string]any{
		"status":   "ok",
		"draining": s.queue.Draining(),
	})
}
