// Package serve exposes the repo's exploration engines — the Lemma 2
// census, single-root valency classification, and the Theorem 1 adversary
// — as a REST service with async jobs, progress streaming, a shared
// singleflight atlas cache, Prometheus metrics, and graceful drain.
//
// The serving layer adds no semantics: every query runs the same engine
// code paths as the CLIs (cmd/flpcheck and friends), so a served answer is
// byte-identical to the corresponding command-line invocation. What the
// server adds is amortization — one explore.AtlasCache shared by every
// job, so N concurrent identical queries cost one BuildAtlas sweep — and
// operability: bounded admission, /metrics, /healthz, and a drain state
// machine for clean shutdown.
//
// Endpoints:
//
//	POST /v1/census     {"protocol","n","budget"?}          → 202 + job (or ?wait=1 → 200 + result)
//	POST /v1/valency    {"protocol","n","inputs","budget"?} → 202 + job
//	POST /v1/adversary  {"protocol","n","stages"?}          → 202 + job
//	GET  /v1/jobs/{id}            → job status + result (?wait=1 blocks)
//	GET  /v1/jobs/{id}/events     → NDJSON progress stream, replay-then-follow
//	GET  /v1/protocols            → servable protocol names
//	GET  /metrics                 → Prometheus text exposition
//	GET  /healthz                 → liveness + drain status
package serve

import (
	"net/http"
	"path/filepath"
	"sync"

	"github.com/flpsim/flp/internal/atlasstore"
	"github.com/flpsim/flp/internal/explore"
)

// Options configure a Server. The zero value is usable.
type Options struct {
	// Workers is the job pool size — how many queries execute
	// concurrently. Default 2. Parallelism inside one query is the
	// engine default, GOMAXPROCS; this is parallelism across queries.
	Workers int
	// QueueDepth bounds how many admitted jobs may wait for a pool
	// worker. Beyond it, submissions get 503 + Retry-After. Default 64.
	QueueDepth int
	// AtlasDir, when set, backs the shared atlas cache with a persistent
	// atlasstore.Store rooted there: atlases survive restarts, and a
	// server pointed at a warm directory serves its first repeat census
	// from disk instead of rebuilding. It also enables the durable job
	// journal (jobs.journal under the same root): admitted jobs survive a
	// server crash — finished ones keep answering status and event
	// queries, unfinished ones are re-admitted and re-run on restart. The
	// exception is a valency answered from memory at admission: a crash
	// may lose its one unsynced record, and its ID then answers 404.
	// Empty means memory-only, nothing survives.
	AtlasDir string
	// Log receives operational log lines (journal recovery, corruption
	// reports). Nil discards them.
	Log func(format string, args ...any)
}

func (o Options) withDefaults() Options {
	if o.Workers <= 0 {
		o.Workers = 2
	}
	if o.QueueDepth <= 0 {
		o.QueueDepth = 64
	}
	return o
}

// Server is the exploration service: job queue, shared atlas cache,
// metrics, and the HTTP handler tree. Create with New, expose Handler()
// on an http.Server, call Drain() on shutdown.
type Server struct {
	opt     Options
	atlases *explore.AtlasCache
	store   *atlasstore.Store
	jnl     *journal
	m       *metrics
	queue   *jobQueue
	mux     *http.ServeMux
	// protocols maps protocolKey to the model.Protocol it resolved to.
	protocols sync.Map
}

// New builds a server. The embedded atlas cache is fresh; every job this
// server runs shares it. With Options.AtlasDir set, the cache is backed by
// a persistent store in that directory, and the job journal there is
// replayed: finished jobs come back as queryable history, unfinished ones
// are re-admitted under their original IDs and re-run (cheaply — their
// atlases are already in the store).
func New(opt Options) (*Server, error) {
	opt = opt.withDefaults()
	s := &Server{
		opt:     opt,
		atlases: explore.NewAtlasCache(),
	}
	var replayed []*replayedJob
	if opt.AtlasDir != "" {
		st, err := atlasstore.Open(opt.AtlasDir)
		if err != nil {
			return nil, err
		}
		s.store = st
		s.atlases.SetBackend(st)
		jnl, jobs, err := openJournal(filepath.Join(opt.AtlasDir, "jobs.journal"), opt.Log)
		if err != nil {
			return nil, err
		}
		s.jnl = jnl
		replayed = jobs
	}
	s.m = newMetrics(s.atlases, s.store, s.jnl)
	s.queue = newJobQueue(opt.Workers, opt.QueueDepth, s.m, s.jnl)
	for _, rj := range replayed {
		s.recoverJob(rj)
	}
	s.mux = http.NewServeMux()
	s.mux.HandleFunc("POST /v1/census", s.handleCensus)
	s.mux.HandleFunc("POST /v1/valency", s.handleValency)
	s.mux.HandleFunc("POST /v1/adversary", s.handleAdversary)
	s.mux.HandleFunc("GET /v1/jobs/{id}", s.handleJob)
	s.mux.HandleFunc("GET /v1/jobs/{id}/events", s.handleJobEvents)
	s.mux.HandleFunc("GET /v1/protocols", s.handleProtocols)
	s.mux.HandleFunc("GET /healthz", s.handleHealthz)
	s.mux.Handle("GET /metrics", s.m.reg.Handler())
	return s, nil
}

// Handler returns the server's HTTP handler tree.
func (s *Server) Handler() http.Handler { return s.mux }

// Drain runs the shutdown state machine: stop admitting (new submissions
// get 503 + Retry-After immediately), cancel queued jobs, let in-flight
// jobs finish (chunked ones cut out early as canceled), and return once
// every admitted job is terminal. Status, events, metrics, and health
// endpoints keep serving throughout and after — the process decides when
// to stop listening, typically via http.Server.Shutdown after Drain
// returns.
func (s *Server) Drain() { s.queue.Drain() }

// Draining reports whether Drain has begun.
func (s *Server) Draining() bool { return s.queue.Draining() }

// AtlasCache exposes the shared cache (tests read its stats).
func (s *Server) AtlasCache() *explore.AtlasCache { return s.atlases }

// logf routes an operational log line per Options.Log.
func (s *Server) logf(format string, args ...any) {
	if s.opt.Log != nil {
		s.opt.Log(format, args...)
	}
}

// recoverJob replays one journaled job into the fresh queue: terminal jobs
// become queryable history (a skip — nothing re-runs), non-terminal ones
// are rebuilt from their admission request and re-admitted (a resume). A
// job whose request no longer rebuilds — unknown kind, undecodable body —
// is registered as failed with the reason, never silently dropped.
func (s *Server) recoverJob(rj *replayedJob) {
	if rj.state.terminal() {
		s.jnl.noteSkip()
		s.queue.addTerminal(rj)
		return
	}
	run, err := s.jobBody(rj.kind, rj.req)
	if err != nil {
		s.jnl.noteCorrupt()
		s.logf("serve: job journal: cannot rebuild %s job %s: %v", rj.kind, rj.id, err)
		rj.state = StateFailed
		rj.errMsg = "unrecoverable after restart: " + err.Error()
		s.queue.addTerminal(rj)
		return
	}
	if s.queue.readmit(rj, run) {
		s.jnl.noteResume()
		s.logf("serve: job journal: re-admitted %s job %s", rj.kind, rj.id)
	}
}
