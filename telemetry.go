package extract

import (
	"io"
	"sort"
	"time"

	"extract/internal/serve"
	"extract/internal/telemetry"
)

// This file is the facade's observability surface: every Corpus carries a
// metric registry fed by the serving layer (per-stage query latency
// histograms, cache and failure counters) and by the reload paths, exported
// in Prometheus text format by WriteMetrics and read programmatically with
// QueryLatencies. See OBSERVABILITY.md for the metric-by-metric reference.

// Hop describes one remote call attempt a routed query made: which replica
// was asked, whether it was a failover retry, the client-observed wire
// round trip, and the server-side stage breakdown the shard server
// reported. A query that failed over leaves one Hop per attempt, so the
// failed attempts and their causes stay visible next to the one that
// succeeded.
type Hop struct {
	// Kind is the remote call kind of a query: eval, full or snippets.
	Kind string
	// Group is the replica-group label the call targeted ("0".."n-1", or
	// "any" for calls any replica may serve).
	Group string
	// Replica is the network address of the replica this attempt used.
	Replica string
	// Attempt is the zero-based attempt number; attempts after the first
	// are failovers.
	Attempt int
	// Wire is the client-observed round trip, including encode, network,
	// and server time.
	Wire time.Duration
	// ServerDecode, ServerEval and ServerEncode are the server-reported
	// stage durations (zero when the attempt failed before a response).
	ServerDecode, ServerEval, ServerEncode time.Duration
	// Err classifies why the attempt failed ("" on success); it is the
	// failover cause for the retry that follows it.
	Err string
}

// hopsFromInternal converts the serving layer's hop spans to the facade's
// public form (nil in, nil out).
func hopsFromInternal(hops []telemetry.HopSpan) []Hop {
	if len(hops) == 0 {
		return nil
	}
	out := make([]Hop, len(hops))
	for i, h := range hops {
		out[i] = Hop{
			Kind:         h.Kind,
			Group:        h.Group,
			Replica:      h.Replica,
			Attempt:      h.Attempt,
			Wire:         h.Wire,
			ServerDecode: h.ServerDecode,
			ServerEval:   h.ServerEval,
			ServerEncode: h.ServerEncode,
			Err:          h.Err,
		}
	}
	return out
}

// QueryTrace is one served query's record, the same whether the
// recent-trace ring retained it (RecentTraces) or it crossed the
// WithSlowQueryLog threshold: the local stage breakdown plus every remote
// hop made on the query's behalf. It is safe to log or expose: it never
// carries the raw query string, and Err is an error class, never an error
// message — nothing document- or value-derived can leak. A slow-query
// record carries the query's tokenized Keywords; a retained trace carries
// none, so a debug endpoint serving traces leaks nothing of what users
// searched for — correlate with the slow-query log by TraceID when the
// query itself is needed.
type QueryTrace struct {
	// TraceID identifies the query end to end: a slow-query record and the
	// retained trace of the same query carry the same ID.
	TraceID uint64
	// Keywords are the query's tokenized, lowercased terms, on a
	// slow-query record only; nil on a retained trace.
	Keywords []string
	// Time is when the query finished.
	Time time.Time
	// Total is the end-to-end serve duration, the one compared against the
	// slow-query threshold.
	Total time.Duration
	// Stages is the local per-stage breakdown (admission, cache, dispatch,
	// eval, snippet) in execution order; stages the query never entered are
	// absent (a cache hit has no dispatch, eval or snippet).
	Stages []TraceStage
	// Cache is the cache outcome: hit, miss, coalesced, or "" when the
	// query failed before the cache probe.
	Cache string
	// Results is the number of results returned (0 on error).
	Results int
	// Err classifies a failure — overload, timeout, canceled, panic,
	// empty, other — or is "" for success.
	Err string
	// Kept says why the ring retained this trace: "sampled" (the steady
	// one-in-N sample of traffic) or "slow" (among the slowest seen); ""
	// on a slow-query record.
	Kept string
	// Hops lists the remote call attempts made for this query, in order.
	// Empty for local backends, cache hits and coalesced followers (the
	// computing leader's record carries the hops).
	Hops []Hop
}

// TraceStage is one named local stage timing inside a QueryTrace: Name is
// the stage (admission, cache, dispatch, eval, snippet), Duration the time
// spent there.
type TraceStage = telemetry.StageSpan

// traceFromInternal converts the serving layer's query record to the
// facade's. Its slices are the caller's own already (a ring snapshot is a
// deep copy, a slow-query record is filled fresh), so Stages is shared.
func traceFromInternal(qt telemetry.QueryTrace) QueryTrace {
	return QueryTrace{
		TraceID:  uint64(qt.ID),
		Keywords: qt.Keywords,
		Time:     qt.Time,
		Total:    qt.Total,
		Stages:   qt.Stages,
		Cache:    qt.Cache,
		Results:  qt.Results,
		Err:      qt.Err,
		Kept:     qt.Kept,
		Hops:     hopsFromInternal(qt.Hops),
	}
}

// RecentTraces snapshots the corpus's retained query traces, newest first:
// a steady sample of recent traffic plus the slowest queries seen. The
// ring is bounded and retention is decided per query in nanoseconds, so
// tracing is always on — there is nothing to configure.
func (c *Corpus) RecentTraces() []QueryTrace {
	traces := c.server().RecentTraces()
	out := make([]QueryTrace, len(traces))
	for i, qt := range traces {
		out[i] = traceFromInternal(qt)
	}
	return out
}

// StageLatency summarizes one query-lifecycle stage's latency
// distribution. The pseudo-stage "total" covers the whole query end to
// end; admission and cache count every query, while dispatch, eval and
// snippet count only queries that computed (cache hits skip them).
type StageLatency struct {
	// Stage is total, admission, cache, dispatch, eval, or snippet.
	Stage string
	// Count is the number of recorded observations.
	Count uint64
	// P50, P90, P99 and P999 are latency quantiles; the estimates never
	// under-report and are within 6.25% above the true value.
	P50, P90, P99, P999 time.Duration
	// Max is the largest latency recorded.
	Max time.Duration
}

// queryStageOrder is the order QueryLatencies reports stages in: lifecycle
// order, with the end-to-end distribution first.
var queryStageOrder = []string{"total", "admission", "cache", "dispatch", "eval", "snippet"}

// QueryLatencies reports the corpus's query latency distributions by
// lifecycle stage, in lifecycle order with the end-to-end "total" first.
// Quantiles are computed from lock-free histograms the serving layer
// records into on every query; reading them costs nothing on the query
// path.
func (c *Corpus) QueryLatencies() []StageLatency {
	c.server() // registration happens with the serving layer
	byStage := map[string]*telemetry.HistogramSnapshot{}
	for _, m := range c.reg.Snapshot().Metrics {
		switch m.Name {
		case serve.MetricQuerySeconds:
			byStage["total"] = m.Histogram
		case serve.MetricQueryStageSeconds:
			for _, l := range m.Labels {
				if l.Key == "stage" {
					byStage[l.Value] = m.Histogram
				}
			}
		}
	}
	out := make([]StageLatency, 0, len(queryStageOrder))
	for _, st := range queryStageOrder {
		h := byStage[st]
		if h == nil {
			continue
		}
		out = append(out, StageLatency{
			Stage: st,
			Count: h.Count,
			P50:   time.Duration(h.Quantile(0.5)),
			P90:   time.Duration(h.Quantile(0.9)),
			P99:   time.Duration(h.Quantile(0.99)),
			P999:  time.Duration(h.Quantile(0.999)),
			Max:   time.Duration(h.MaxNs),
		})
	}
	return out
}

// RegisterGauge adds a process-side gauge to the corpus's registry so it
// exports through WriteMetrics next to the serving metrics — extractd uses
// it for its reload-failure and circuit-breaker state. fn is called at
// snapshot time and must be safe to call concurrently. Labels are rendered
// in sorted key order; registering the same name and labels twice keeps
// the first registration.
func (c *Corpus) RegisterGauge(name, help string, fn func() float64, labels map[string]string) {
	keys := make([]string, 0, len(labels))
	for k := range labels {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	ls := make([]telemetry.Label, 0, len(keys))
	for _, k := range keys {
		ls = append(ls, telemetry.L(k, labels[k]))
	}
	c.reg.Gauge(name, help, fn, ls...)
}

// WriteMetrics renders every metric of the corpus in the Prometheus text
// exposition format: query latency histograms per lifecycle stage, cache
// effectiveness and failure counters, reload timings, and any gauges added
// with RegisterGauge. A process serving several corpora should use the
// package-level WriteMetrics to merge them under dataset labels.
func (c *Corpus) WriteMetrics(w io.Writer) error {
	c.server()
	return telemetry.WritePrometheus(w, telemetry.Instance{Snap: c.reg.Snapshot()})
}

// WriteMetrics renders the corpora's metrics as one merged Prometheus text
// exposition, labeling every series with dataset=<name>. Metric names are
// emitted in sorted order with one HELP/TYPE header each, so the output is
// a valid scrape target no matter how many corpora share the process.
func WriteMetrics(w io.Writer, corpora map[string]*Corpus) error {
	names := make([]string, 0, len(corpora))
	for name := range corpora {
		names = append(names, name)
	}
	sort.Strings(names)
	instances := make([]telemetry.Instance, 0, len(names))
	for _, name := range names {
		c := corpora[name]
		c.server()
		instances = append(instances, telemetry.Instance{
			Labels: []telemetry.Label{telemetry.L("dataset", name)},
			Snap:   c.reg.Snapshot(),
		})
	}
	return telemetry.WritePrometheus(w, instances...)
}

// recordReload records one reload into the registry — publish calls it,
// so every way of reloading reports alike: an outcome counter, a duration
// histogram labeled by source (swap, xml, snapshot) and mode (full, delta),
// and what the reload reused, in shards adopted from the previous generation
// against shards rebuilt (or decoded, or re-placed), and in top-level
// entities parsed against copied. Failed reloads count but do not pollute
// the duration distribution — an early parse error is not a reload time.
func (c *Corpus) recordReload(source string, stats DeltaStats, read loadStats, start time.Time, err error) {
	if err != nil {
		c.reg.Counter("extract_reloads_total", reloadsHelp, telemetry.L("result", "error")).Inc()
		return
	}
	c.reg.Counter("extract_reloads_total", reloadsHelp, telemetry.L("result", "ok")).Inc()
	c.reg.Histogram("extract_reload_seconds",
		"Reload duration by source (swap, xml, snapshot) and mode (full, delta).",
		telemetry.L("source", source), telemetry.L("mode", stats.Mode())).Observe(time.Since(start))
	c.reg.Counter("extract_reload_shards_total", reloadShardsHelp, telemetry.L("outcome", "reused")).Add(int64(stats.Reused))
	c.reg.Counter("extract_reload_shards_total", reloadShardsHelp, telemetry.L("outcome", "rebuilt")).Add(int64(stats.Rebuilt))
	parsed, copied := c.reloadSegments()
	parsed.Add(int64(read.Parsed))
	copied.Add(int64(read.Copied))
	scanned, skipped := c.reloadBytes()
	scanned.Add(int64(read.scanned))
	skipped.Add(int64(read.skipped))
}

// reloadBytes returns the extract_reload_bytes_total series. newCorpus
// registers them, so both exist from the first scrape.
func (c *Corpus) reloadBytes() (scanned, skipped *telemetry.Counter) {
	return c.reg.Counter("extract_reload_bytes_total", reloadBytesHelp, telemetry.L("outcome", "scanned")),
		c.reg.Counter("extract_reload_bytes_total", reloadBytesHelp, telemetry.L("outcome", "skipped"))
}

// reloadSegments returns the extract_reload_segments_total series. newCorpus
// registers them, so both exist from the first scrape.
func (c *Corpus) reloadSegments() (parsed, copied *telemetry.Counter) {
	return c.reg.Counter("extract_reload_segments_total", reloadSegmentsHelp, telemetry.L("outcome", "parsed")),
		c.reg.Counter("extract_reload_segments_total", reloadSegmentsHelp, telemetry.L("outcome", "copied"))
}

// ReloadSegments returns how many top-level entities (the root's children)
// the corpus's successful XML reloads have read so far: parsed from bytes
// the serving generation had not read, or copied out of its documents
// because it had. An entity of a shard adopted unread is neither; an input
// no split takes is parsed whole, every entity counted as parsed. These are
// the extract_reload_segments_total counters, so a reload's own counts are
// the difference across it.
func (c *Corpus) ReloadSegments() (parsed, copied int64) {
	p, cp := c.reloadSegments()
	return p.Value(), cp.Value()
}

const (
	reloadsHelp        = "Reloads by result; errored reloads left the old generation serving."
	reloadShardsHelp   = "Shards of successfully reloaded generations by outcome: reused (adopted from the previous generation) or rebuilt."
	reloadSegmentsHelp = "Top-level entities successful XML reloads read, by outcome: parsed (bytes the serving generation had not read) or copied (out of its documents)."
	reloadBytesHelp    = "Input bytes of successful XML reloads, by outcome: scanned, or skipped (runs of top-level entities the serving generation read at the same offsets from either end, passed over unscanned)."
)

// recordSnapshotSave records one SaveSnapshot duration.
func (c *Corpus) recordSnapshotSave(start time.Time) {
	c.reg.Histogram("extract_snapshot_save_seconds",
		"SaveSnapshot duration: manifest plus changed shard images.").Observe(time.Since(start))
}
