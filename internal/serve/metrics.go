package serve

import (
	"context"
	"errors"
	"time"

	"extract/internal/search"
	"extract/internal/shard"
	"extract/internal/telemetry"
)

// The query lifecycle stages instrumented with latency histograms. Each
// served query passes through admission and the cache probe; dispatch,
// eval and snippet run only when the response is computed (a cache hit or
// coalesced wait skips them), so their histograms count computations, not
// queries.
type stage int

const (
	// stageAdmission is the shed/deadline gate (Server.begin).
	stageAdmission stage = iota
	// stageCache is key encoding plus the cache probe, including any
	// coalesced wait on an identical in-flight computation.
	stageCache
	// stageDispatch is the backend load: one atomic read of the corpus
	// being served. Worker-pool queueing is part of eval — the pool
	// schedules per-shard units, not whole queries.
	stageDispatch
	// stageEval is query evaluation across the backend's shards, through
	// the worker pool.
	stageEval
	// stageSnippet is snippet generation for the result list, plus
	// rendering each snippet's XML, as the backend noted it on the query's
	// span sink.
	stageSnippet
	numStages
)

// stageNames are the `stage` label values, indexed by stage.
var stageNames = [numStages]string{"admission", "cache", "dispatch", "eval", "snippet"}

// Metric names exported for consumers that read registry snapshots (the
// facade's latency accessors, the /metrics doc tests).
const (
	// MetricQuerySeconds is the end-to-end query latency histogram: every
	// served query, including cache hits, shed queries and failures.
	MetricQuerySeconds = "extract_query_seconds"
	// MetricQueryStageSeconds is the per-stage latency histogram, labeled
	// stage=admission|cache|dispatch|eval|snippet.
	MetricQueryStageSeconds = "extract_query_stage_seconds"
)

// errKinds are the label values of extract_query_errors_total.
var errKinds = []string{"overload", "timeout", "canceled", "panic", "empty", "other"}

// trace accumulates one query's per-stage durations. Stages that never ran
// (dispatch/eval/snippet on a cache hit) stay untouched and are not
// recorded, so each stage histogram describes only queries that actually
// entered the stage. The embedded span sink carries the query's trace ID
// and collects the remote hop spans the router attaches on computed
// queries — embedding it here keeps the per-query cost inside the one
// trace allocation serve already pays.
type trace struct {
	d       [numStages]time.Duration
	touched [numStages]bool
	sink    telemetry.SpanSink
}

func (t *trace) add(st stage, d time.Duration) {
	t.d[st] += d
	t.touched[st] = true
}

// metricsSet holds the server's registered instruments. All fields are
// pre-registered at construction so the hot path never takes the registry
// lock.
type metricsSet struct {
	total   *telemetry.Histogram
	stages  [numStages]*telemetry.Histogram
	errs    map[string]*telemetry.Counter
	outcome map[string]*telemetry.Counter
	// fallbacks counts the computed queries whose sharded merge took round
	// two, a root-involving answer (telemetry.SpanSink.NoteFallback).
	fallbacks *telemetry.Counter
}

// newMetrics registers the server's instruments in reg and adopts the
// counters embedded in the cache and server structs, so Stats() and the
// registry report the same numbers.
func newMetrics(reg *telemetry.Registry, s *Server) *metricsSet {
	m := &metricsSet{
		total: reg.Histogram(MetricQuerySeconds,
			"End-to-end query latency: every served query, including cache hits, shed queries and failures."),
		errs:    make(map[string]*telemetry.Counter, len(errKinds)),
		outcome: make(map[string]*telemetry.Counter, 3),
	}
	for st := stage(0); st < numStages; st++ {
		m.stages[st] = reg.Histogram(MetricQueryStageSeconds,
			"Query latency by lifecycle stage; dispatch/eval/snippet count computed queries only.",
			telemetry.L("stage", stageNames[st]))
	}
	for _, k := range errKinds {
		m.errs[k] = reg.Counter("extract_query_errors_total",
			"Failed queries by error kind.", telemetry.L("kind", k))
	}
	for _, o := range []string{outcomeHit, outcomeMiss, outcomeCoalesced} {
		m.outcome[o] = reg.Counter("extract_query_cache_outcomes_total",
			"Queries by cache outcome.", telemetry.L("outcome", o))
	}
	m.fallbacks = reg.Counter("extract_query_fallbacks_total",
		"Computed queries answered by the whole-document round of the sharded merge: the root qualified as an LCA, or anchored a result.")
	c := s.cache
	reg.AddCounter("extract_cache_hits_total", "Query-cache hits.", &c.hits)
	reg.AddCounter("extract_cache_misses_total", "Query-cache misses (response computed).", &c.misses)
	reg.AddCounter("extract_cache_coalesced_total",
		"Queries that joined an identical in-flight computation instead of starting their own.", &c.coalesced)
	reg.AddCounter("extract_cache_evictions_total", "Entries evicted to fit the cache budget.", &c.evictions)
	reg.AddCounter("extract_cache_admission_rejected_total",
		"Inserts the TinyLFU admission filter kept out of a full cache.", &c.rejected)
	reg.AddCounter("extract_query_panics_total",
		"Queries failed by a recovered evaluation panic.", &s.panics)
	reg.AddCounter("extract_queries_shed_total",
		"Queries rejected at admission by the in-flight bound.", &s.shed)
	reg.Gauge("extract_inflight_queries", "Queries currently admitted and executing.",
		func() float64 { return float64(s.inflight.Load()) })
	reg.Gauge("extract_cache_entries", "Live query-cache entries.",
		func() float64 { e, _, _ := c.occupancy(); return float64(e) })
	reg.Gauge("extract_cache_bytes", "Estimated heap bytes held by the query cache.",
		func() float64 { _, b, _ := c.occupancy(); return float64(b) })
	reg.Gauge("extract_cache_capacity_bytes", "Query-cache byte budget.",
		func() float64 { _, _, cap := c.occupancy(); return float64(cap) })
	return m
}

// finish records one completed query: the total and per-stage histograms
// and the outcome and error-kind counters.
func (m *metricsSet) finish(tr *trace, outcome, kind string, total time.Duration) {
	m.total.Observe(total)
	for st := stage(0); st < numStages; st++ {
		if tr.touched[st] {
			m.stages[st].Observe(tr.d[st])
		}
	}
	if c, ok := m.outcome[outcome]; ok {
		c.Inc()
	}
	if tr.sink.Fallback() {
		m.fallbacks.Inc()
	}
	if kind != "" {
		m.errs[kind].Inc()
	}
}

// errKind classifies a query error into an extract_query_errors_total
// label value, or "" for success.
func errKind(err error) string {
	var pe *shard.PanicError
	switch {
	case err == nil:
		return ""
	case errors.Is(err, ErrOverloaded):
		return "overload"
	case errors.Is(err, context.DeadlineExceeded):
		return "timeout"
	case errors.Is(err, context.Canceled):
		return "canceled"
	case errors.As(err, &pe):
		return "panic"
	case errors.Is(err, search.ErrEmptyQuery):
		return "empty"
	default:
		return "other"
	}
}
