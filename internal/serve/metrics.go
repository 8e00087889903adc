package serve

import (
	"github.com/flpsim/flp/internal/atlasstore"
	"github.com/flpsim/flp/internal/explore"
	"github.com/flpsim/flp/internal/promtext"
)

// metrics is the server's instrument panel, served at /metrics in the
// Prometheus text exposition format. Cache counters are read-on-scrape
// from the shared AtlasCache, so they need no write-path instrumentation
// in the engines.
type metrics struct {
	reg *promtext.Registry

	jobsTotal   *promtext.CounterVec   // kind, state: terminal outcomes
	jobDuration *promtext.HistogramVec // kind: queued→terminal latency, seconds
	queueDepth  *promtext.Gauge
	inflight    *promtext.Gauge
	httpTotal   *promtext.CounterVec // endpoint, code
}

func newMetrics(ac *explore.AtlasCache, store *atlasstore.Store, jnl *journal) *metrics {
	reg := promtext.NewRegistry()
	m := &metrics{
		reg: reg,
		jobsTotal: promtext.NewCounterVec(reg, "flpserve_jobs_total",
			"Jobs finished, by kind and terminal state.", "kind", "state"),
		jobDuration: promtext.NewHistogramVec(reg, "flpserve_job_duration_seconds",
			"Job run duration (start to terminal state) in seconds; 0 for a valency answered from memory at admission.", nil, "kind"),
		queueDepth: promtext.NewGauge(reg, "flpserve_queue_depth",
			"Jobs waiting in the admission queue."),
		inflight: promtext.NewGauge(reg, "flpserve_jobs_inflight",
			"Jobs currently executing on pool workers."),
		httpTotal: promtext.NewCounterVec(reg, "flpserve_http_requests_total",
			"HTTP requests served, by endpoint and status code.", "endpoint", "code"),
	}
	cache := promtext.NewCounterFuncVec(reg, "flpserve_atlas_cache_lookups_total",
		"Shared atlas cache lookups, by outcome: hit (answered from memory), miss (ran a build), merged (waited on a concurrent caller's build).", "outcome")
	cache.With(func() int64 { h, _, _ := ac.Stats(); return h }, "hit")
	cache.With(func() int64 { _, mi, _ := ac.Stats(); return mi }, "miss")
	cache.With(func() int64 { _, _, me := ac.Stats(); return me }, "merged")
	if store != nil {
		ops := promtext.NewCounterFuncVec(reg, "flpserve_atlas_store_ops_total",
			"Persistent atlas store operations, by outcome: hit (artifact loaded), miss (built and persisted), resume (frontier extended), evict (artifact replaced by a newer state), corrupt (artifact failed validation, deleted), refused (complete-or-refused contract refusal).", "outcome")
		ops.With(func() int64 { return store.Stats().Hits }, "hit")
		ops.With(func() int64 { return store.Stats().Misses }, "miss")
		ops.With(func() int64 { return store.Stats().Resumes }, "resume")
		ops.With(func() int64 { return store.Stats().Evictions }, "evict")
		ops.With(func() int64 { return store.Stats().Corrupt }, "corrupt")
		ops.With(func() int64 { return store.Stats().Refused }, "refused")
	}
	if jnl != nil {
		ck := promtext.NewCounterFuncVec(reg, "flpserve_checkpoint_ops_total",
			"Durable job-journal checkpoint operations, by outcome: write (record appended), resume (non-terminal job re-admitted at startup), corrupt (damaged journal region or unrebuildable job detected, logged, dropped), skip (terminal job replayed as history, not re-run).", "outcome")
		ck.With(func() int64 { return jnl.stats().Writes }, "write")
		ck.With(func() int64 { return jnl.stats().Resumes }, "resume")
		ck.With(func() int64 { return jnl.stats().Corrupt }, "corrupt")
		ck.With(func() int64 { return jnl.stats().Skips }, "skip")
		recs := promtext.NewCounterFuncVec(reg, "flpserve_journal_records_total",
			"Job-journal records appended this server lifetime, by record type.", "type")
		for _, rt := range []string{recAccepted, recStarted, recEvent, recTerminal, recReserve} {
			rt := rt
			recs.With(func() int64 { return jnl.recordsTotal(rt) }, rt)
		}
	}
	return m
}
