package serve

import (
	"context"
	"errors"
	"runtime"
	"runtime/debug"
	"sync/atomic"
	"time"

	"extract/internal/core"
	"extract/internal/search"
	"extract/internal/shard"
	"extract/internal/telemetry"
)

// DefaultCacheBytes is the query-cache budget when the caller does not set
// one: large enough to hold the working set of a skewed query stream, small
// next to the corpus it serves.
const DefaultCacheBytes = 64 << 20

// Backend is the evaluation side the serving layer drives: a corpus that
// answers a query, snippets included. A local corpus (*shard.Corpus, n >= 1
// shards) is one Backend, evaluating on its shards and snippeting its results
// in process; a remote tier's router (remote.Router) is another, whose shard
// servers evaluate and snippet the results where they live. The Server never
// looks inside — worker pool, cache and swap all operate on the interface,
// so every corpus gets the same serving path.
type Backend interface {
	// Analysis returns the corpus carrying the classification and keys
	// snippet generation needs (not necessarily a document).
	Analysis() *core.Corpus
	// Answer evaluates a parsed query (the serving layer's one parse,
	// which it only reads), scheduling independent work through run (nil =
	// own goroutines) and honoring ctx cancellation between units of work. When bound >= 0 it also returns one snippet per result at that
	// bound, aligned with the results, each a served snippet with its XML
	// rendered (core.Generator.ServeResult on a local corpus,
	// core.ServedSnippets.Serve over a received record on a router); bound < 0 is search only, with
	// nil snippets. Results may be deferred (search.Result.Tree); a served
	// snippet's tree and IList are derived when read
	// (core.Generated.Derived).
	Answer(ctx context.Context, q search.Query, opts search.Options, run shard.Runner, bound int) ([]*search.Result, []*core.Generated, error)
}

// Server is the query-serving layer over one corpus backend. It owns the
// worker pool and the query cache; see the package comment for what each
// buys. A Server is safe for concurrent use.
type Server struct {
	pool  *Pool
	cache *Cache

	// timeout is the per-query deadline (0 = none); maxInFlight bounds
	// admitted queries (0 = unlimited), with inflight the live count.
	timeout     time.Duration
	maxInFlight int64
	inflight    atomic.Int64

	panics telemetry.Counter // queries failed by a recovered panic
	shed   telemetry.Counter // queries rejected by the in-flight bound

	// metrics holds the pre-registered latency histograms and counters;
	// always non-nil (a private registry is created when the caller does
	// not supply one via WithTelemetry).
	metrics *metricsSet

	// traces retains recent query traces (sampled plus slowest) for the
	// /debug/traces endpoint; always non-nil.
	traces *telemetry.TraceRing

	// slowFn receives the record of every query at least slowThreshold
	// slow (WithSlowQueries); nil disables it.
	slowThreshold time.Duration
	slowFn        func(telemetry.QueryTrace)

	// backend is the corpus being served, replaced whole by Swap.
	backend atomic.Pointer[Backend]
}

// ErrOverloaded rejects a query that would exceed the server's in-flight
// bound (WithMaxInFlight). It is returned before any evaluation work, so
// overload degrades to fast clean errors the caller can retry, instead of
// a growing convoy of slow queries.
var ErrOverloaded = errors.New("serve: overloaded: in-flight query limit reached")

// Option configures New.
type Option func(*config)

type config struct {
	workers       int
	cacheBytes    int64
	timeout       time.Duration
	maxInFlight   int
	reg           *telemetry.Registry
	slowThreshold time.Duration
	slowFn        func(telemetry.QueryTrace)
}

// WithWorkers sets the worker-pool size (default GOMAXPROCS). The pool
// bounds corpus-wide evaluation concurrency across all in-flight queries.
func WithWorkers(n int) Option {
	return func(c *config) {
		if n > 0 {
			c.workers = n
		}
	}
}

// WithCacheBytes sets the query-cache budget in bytes (default
// DefaultCacheBytes). Zero disables caching; singleflight coalescing of
// concurrent identical queries stays on.
func WithCacheBytes(n int64) Option {
	return func(c *config) {
		if n >= 0 {
			c.cacheBytes = n
		}
	}
}

// WithQueryTimeout sets a per-query deadline applied to every query that
// does not already carry an earlier one (default none). An expired query
// stops at the next evaluation checkpoint and returns
// context.DeadlineExceeded.
func WithQueryTimeout(d time.Duration) Option {
	return func(c *config) {
		if d > 0 {
			c.timeout = d
		}
	}
}

// WithMaxInFlight bounds the number of queries admitted concurrently
// (default unlimited). Queries beyond the bound are rejected immediately
// with ErrOverloaded — load sheds to clean errors instead of queueing
// until collapse.
func WithMaxInFlight(n int) Option {
	return func(c *config) {
		if n > 0 {
			c.maxInFlight = n
		}
	}
}

// WithTelemetry registers the server's latency histograms, counters and
// gauges in reg instead of a private registry, so its metrics export
// alongside the owning process's other instruments. The same registry must
// not back two Servers: they would share (and double-count into) one set
// of instruments.
func WithTelemetry(reg *telemetry.Registry) Option {
	return func(c *config) {
		if reg != nil {
			c.reg = reg
		}
	}
}

// WithSlowQueries installs fn as the slow-query hook: every query whose
// end-to-end latency reaches threshold is reported after its response is
// ready, as the same record the trace ring keeps plus the query's Keywords
// (search.Query.Keywords) — the raw query string never leaves this package.
// fn runs on the query's goroutine and must not block.
func WithSlowQueries(threshold time.Duration, fn func(telemetry.QueryTrace)) Option {
	return func(c *config) {
		if threshold > 0 && fn != nil {
			c.slowThreshold, c.slowFn = threshold, fn
		}
	}
}

// Trace-ring retention: one query in traceSampleEvery is kept as a steady
// sample of normal traffic (the first query always, so cold starts are
// visible), in a ring of traceRingSize slots; the traceSlowSize slowest
// queries are kept besides, so outliers survive however rare.
const (
	traceSampleEvery = 16
	traceRingSize    = 64
	traceSlowSize    = 16
)

// New builds a serving layer over b.
func New(b Backend, opts ...Option) *Server {
	cfg := config{workers: runtime.GOMAXPROCS(0), cacheBytes: DefaultCacheBytes}
	for _, o := range opts {
		o(&cfg)
	}
	s := &Server{
		pool:          NewPool(cfg.workers),
		cache:         NewCache(cfg.cacheBytes),
		timeout:       cfg.timeout,
		maxInFlight:   int64(cfg.maxInFlight),
		traces:        telemetry.NewTraceRing(traceSampleEvery, traceRingSize, traceSlowSize),
		slowThreshold: cfg.slowThreshold,
		slowFn:        cfg.slowFn,
	}
	s.backend.Store(&b)
	reg := cfg.reg
	if reg == nil {
		reg = telemetry.NewRegistry()
	}
	s.metrics = newMetrics(reg, s)
	// The pool's workers would otherwise pin a dropped Server's goroutines
	// forever; a cleanup stops them when the Server becomes unreachable,
	// so short-lived Servers (tests, tools) need no explicit Close.
	runtime.AddCleanup(s, func(p *Pool) { p.Stop() }, s.pool)
	return s
}

// Close stops the worker pool. Queries issued after Close still work, with
// per-shard evaluation running on the calling goroutine.
func (s *Server) Close() { s.pool.Stop() }

// Backend returns the corpus backend currently being served.
func (s *Server) Backend() Backend { return *s.backend.Load() }

// Swap replaces the served corpus backend and invalidates the query cache —
// the online index-refresh primitive. Queries already in flight complete
// against the corpus they started on; their responses are returned to their
// callers but never enter the cache.
func (s *Server) Swap(b Backend) {
	s.backend.Store(&b)
	s.cache.clear()
}

// Invalidate drops every cached response without changing the corpus —
// for callers that mutated the corpus in place.
func (s *Server) Invalidate() { s.cache.clear() }

// Stats snapshots the query-cache and failure counters. The same
// instruments back the telemetry registry (WithTelemetry), so the two
// views never disagree.
func (s *Server) Stats() Stats {
	st := s.cache.stats()
	st.Panics = s.panics.Value()
	st.Shed = s.shed.Value()
	return st
}

// Cached is one cached query response: the result list and — for
// bound >= 0 keys — the generated snippets aligned with it, each with its XML
// rendered once when the entry was computed. Both are shared across every
// caller that hits the entry and must be treated as immutable. A ranked
// read fills the entry's Ranking once (Ranked); that, the trees a
// deferred result builds (Trees) and the artifacts a deferred snippet decodes
// (Derived) are the only state an entry gains after it is published, and
// each re-charges the entry when it arrives.
// Backend records the corpus generation the response was computed against;
// swap invalidation guarantees a cached entry's backend is the one that
// was current when it was admitted, and an in-flight response outliving a
// swap carries the old backend it was actually evaluated on. Query is the
// parse the entry was computed from: its Keys and Keywords are the entry's
// key's (ranking reads the Keys); its Text is the spelling of whichever
// query computed it, which no reader uses.
type Cached struct {
	Results  []*search.Result
	Snippets []*core.Generated
	Backend  Backend
	Query    search.Query

	// The cache and key it was computed for, where Trees and Ranked
	// re-charge it.
	cache *Cache
	key   string

	ranking atomic.Pointer[Ranking]
}

// Ranking is a response's relevance order: Order[i] is the index in
// Results (and Snippets) of the i-th ranked result, Scores[i] its score.
type Ranking struct {
	Order  []int32
	Scores []float64
}

// At returns the index in Results of the i-th ranked result and its score;
// a nil Ranking is document order, scored 0.
func (rk *Ranking) At(i int) (index int, score float64) {
	if rk == nil {
		return i, 0
	}
	return int(rk.Order[i]), rk.Scores[i]
}

// cost estimates the heap the entry owns, for the cache budget. A view
// result owns a header only — the corpus nodes it points at belong to the
// generation the entry's Backend already pins — and a deferred result (what a
// router returns, and a whole-document result before its tree is built) a
// header and the bytes it retains besides: its keyword depths. An owned
// result tree (a trimmed projection) is charged per node. A
// snippet is charged the bytes of the record it keeps — a router's
// (core.ServedSnippets.Serve), whose XML is a substring of it — or else its
// rendered XML — a local corpus's keeps no record, only its result, which the
// entry charges already (core.Generator.ServeResult) — and once a
// reader has derived its tree and IList (Derived), the tree per node and the
// IList per item; a filled Ranking 12 bytes a result. The constants are rough
// costs (node struct, slice and map headers; an ilist.Item with its share of
// slice growth), not an exact accounting: TestCostChargesWhatAnEntryOwns
// holds a routed entry's charge to what it retains (six 133-edge retailer
// results with their snippets at bound 6, 8.2 KB charged for 8.0 KB; 23.9 KB
// for 23.4 KB once every snippet is decoded; 133 KB for 133 KB once Trees
// has built the trees too). A deferred result whose tree was built is
// charged as the owned tree it now holds — a whole-document result too,
// though it stays a view: Trees re-charges a cached entry when it builds,
// and Derived when it derives a snippet.
func (v *Cached) cost() int64 {
	const (
		perNode   = 136
		perItem   = 96
		perEntry  = 512
		perRanked = 4 + 8 // an Order index and a score
	)
	c := int64(perEntry)
	for _, r := range v.Results {
		c += perEntry
		if retained, deferred := r.Retained(); deferred {
			c += int64(retained)
		} else if view, _ := r.Whole(); view != nil || !r.IsView() {
			c += perNode * int64(r.Size()+1)
		}
	}
	for _, g := range v.Snippets {
		pending, enc := g.Encoded()
		// A router's snippet keeps its record, which holds its XML.
		if c += int64(max(enc, len(g.XML))); pending {
			continue // its own small header within its result's
		}
		d := g.Derived()
		c += perEntry + perNode*int64(d.Edges+1) + perItem*int64(len(d.IList.Items))
	}
	if rk := v.ranking.Load(); rk != nil {
		c += perRanked * int64(len(rk.Order))
	}
	return c
}

// Ranked returns the entry's relevance order: the first Ranking rank
// computes over the entry's results without error, published once and
// returned to every later call (a failed computation is not kept). One
// ranking serves every query that reaches the entry, because the cache key
// is the parsed term list plus options and bound and the entry is of one
// generation (Backend).
func (v *Cached) Ranked(rank func([]*search.Result) (*Ranking, error)) (*Ranking, error) {
	if rk := v.ranking.Load(); rk != nil {
		return rk, nil
	}
	rk, err := rank(v.Results)
	if err != nil {
		return nil, err
	}
	if !v.ranking.CompareAndSwap(nil, rk) {
		return v.ranking.Load(), nil
	}
	if v.cache != nil {
		v.cache.recharge(v)
	}
	return rk, nil
}

// Do answers one query — the serving layer's one entry point. bound >= 0
// runs the full pipeline: search, then one snippet per result at that bound,
// with evaluation and snippet generation both on the worker pool; bound < 0
// is search only (Snippets stays nil). Repeated queries are served from the
// cache. The response is the shared, read-only cache entry itself: results
// and snippets in document order, and the corpus backend they were evaluated
// on — during a Swap that may be the swapped-out corpus, so callers deriving
// anything generation-dependent from the results (ranking statistics, say)
// must use v.Backend, not the server's current one. Callers that reorder
// must copy the slices first; a relevance order is the entry's own
// (Ranked). A cancelled or expired ctx stops the query at
// the next evaluation or snippet checkpoint and returns the context's error.
// Every query records the lifecycle histograms and — when slow enough — the
// slow-query record on the way out.
func (s *Server) Do(ctx context.Context, query string, opts search.Options, bound int) (*Cached, error) {
	start := time.Now()
	tr := &trace{}
	tr.sink.TraceID = telemetry.NextTraceID()
	q := search.Parse(query)
	v, outcome, err := s.serveTraced(ctx, q, opts, bound, tr)
	total := time.Since(start)
	results, kind := 0, errKind(err)
	if v != nil {
		results = len(v.Results)
	}
	s.metrics.finish(tr, outcome, kind, total)
	// One fill describes the query to the trace ring and the slow-query
	// hook alike. The ring decides retention from total alone; an
	// unretained query pays a mutex and a few compares here, nothing more.
	fill := func(qt *telemetry.QueryTrace) {
		qt.ID = tr.sink.TraceID
		qt.Time = time.Now()
		qt.Cache = outcome
		qt.Results = results
		qt.Err = kind
		for st := stage(0); st < numStages; st++ {
			if tr.touched[st] {
				qt.Stages = append(qt.Stages, telemetry.StageSpan{Name: stageNames[st], Duration: tr.d[st]})
			}
		}
		qt.Hops = tr.sink.AppendHops(qt.Hops)
	}
	s.traces.Record(total, fill)
	if s.slowFn != nil && total >= s.slowThreshold {
		qt := telemetry.QueryTrace{Total: total, Keywords: q.Keywords}
		fill(&qt)
		s.slowFn(qt)
	}
	return v, err
}

// QueryContext is Do for callers that want the full pipeline's results and
// snippets as slices of their own (fresh copies, free to reorder; the
// objects they point to stay shared and immutable). Its results have their
// trees (Trees), which ctx bounds too.
func (s *Server) QueryContext(ctx context.Context, query string, opts search.Options, bound int) ([]*search.Result, []*core.Generated, error) {
	v, err := s.Do(ctx, query, opts, bound)
	if err != nil {
		return nil, nil, err
	}
	rs, err := v.Trees(ctx)
	if err != nil {
		return nil, nil, err
	}
	return rs, append([]*core.Generated(nil), v.Snippets...), nil
}

// Trees returns v's results with their trees, as a slice of the caller's
// own: a deferred result's tree is built (search.Result.Tree) once for every
// holder of the entry — on a router by fetching it, with the trees of the
// whole answer, which fails when the tier has moved off the generation that
// answered; a whole-document result's from the shards — and an entry still
// cached is re-charged for the trees it now holds, so the cache budget
// bounds them too. ctx bounds the build.
func (v *Cached) Trees(ctx context.Context) ([]*search.Result, error) {
	rs := make([]*search.Result, len(v.Results))
	built := false
	for i, r := range v.Results {
		_, deferred := r.Retained()
		built = built || deferred
		var err error
		if rs[i], err = r.Tree(ctx); err != nil {
			return nil, err
		}
	}
	if built && v.cache != nil {
		v.cache.recharge(v)
	}
	return rs, nil
}

// Derived returns snippet g of the entry with its tree and IList
// (core.Generated.Derived): derived from the snippet's result on a local
// corpus, decoded from its record on a router, the first time anything asks,
// once for every holder of the entry — and
// an entry still cached is then re-charged for them, as Trees re-charges it
// for the trees it builds.
func (v *Cached) Derived(g *core.Generated) *core.Generated {
	pending, _ := g.Encoded()
	d := g.Derived()
	if pending && v.cache != nil {
		v.cache.recharge(v)
	}
	return d
}

// evaluate is one query's computation: dispatch, then the backend's answer —
// evaluation and, when bound >= 0, snippet generation, each snippet handed
// over with its XML rendered — recorded into the trace as the eval and
// snippet stages. The snippet stage is the time the backend noted on the
// query's span sink for its snippets — a local corpus's fan-out, which
// renders each snippet's XML, a router's round of snippets calls to the
// shard servers.
func (s *Server) evaluate(ctx context.Context, tr *trace, q search.Query, opts search.Options, bound int) (*Cached, error) {
	t := time.Now()
	b := s.Backend()
	tr.add(stageDispatch, time.Since(t))
	t, before := time.Now(), tr.sink.Snippets()
	rs, gs, err := b.Answer(ctx, q, opts, s.pool.Run, bound)
	answered, snippets := time.Since(t), tr.sink.Snippets()-before
	tr.add(stageEval, answered-snippets)
	if snippets > 0 || (bound >= 0 && err == nil) {
		tr.add(stageSnippet, snippets)
	}
	if err != nil {
		return nil, err
	}
	return &Cached{Results: rs, Snippets: gs, Backend: b, Query: q}, nil
}

// begin admits one query: it sheds immediately when the in-flight bound is
// reached, then applies the per-query deadline. finish releases the
// admission slot and the deadline timer; callers must always call it.
func (s *Server) begin(ctx context.Context) (context.Context, func(), error) {
	if err := ctx.Err(); err != nil {
		return nil, nil, err
	}
	if s.maxInFlight > 0 {
		if s.inflight.Add(1) > s.maxInFlight {
			s.inflight.Add(-1)
			s.shed.Inc()
			return nil, nil, ErrOverloaded
		}
	}
	cancel := context.CancelFunc(func() {})
	if s.timeout > 0 {
		ctx, cancel = context.WithTimeout(ctx, s.timeout)
	}
	finish := func() {
		cancel()
		if s.maxInFlight > 0 {
			s.inflight.Add(-1)
		}
	}
	return ctx, finish, nil
}

// compute runs one query computation inside the panic-isolation boundary:
// a panic anywhere in evaluation or snippet generation — recovered by the
// pool on a worker, or here when it escapes on the calling goroutine —
// becomes a per-query *shard.PanicError and bumps the Panics counter. One
// bad query fails alone; the process and every other query survive.
func (s *Server) compute(ctx context.Context, tr *trace, q search.Query, opts search.Options, bound int) (v *Cached, err error) {
	defer func() {
		if r := recover(); r != nil {
			v, err = nil, &shard.PanicError{Value: r, Stack: debug.Stack()}
			s.panics.Inc()
		}
	}()
	// Install the query's span sink only on the compute path: cache hits
	// make no remote calls, so they skip the context allocation too.
	v, err = s.evaluate(telemetry.WithSpanSink(ctx, &tr.sink), tr, q, opts, bound)
	if err != nil {
		var pe *shard.PanicError
		if errors.As(err, &pe) {
			s.panics.Inc()
		}
		return nil, err
	}
	return v, nil
}

// RecentTraces snapshots the retained query traces, newest first: a steady
// sample of recent traffic plus the slowest queries seen. The copies share
// no memory with the ring. Traces carry no query text; correlate with the
// slow-query log by trace ID when the query itself is needed.
func (s *Server) RecentTraces() []telemetry.QueryTrace {
	return s.traces.Snapshot()
}

// serveTraced admits one query and answers it through the cache, reporting
// the cache outcome alongside the response so Do can count and log it.
// Failed computations — errors, timeouts, panics — are returned to their
// callers and never cached.
func (s *Server) serveTraced(ctx context.Context, q search.Query, opts search.Options, bound int, tr *trace) (*Cached, string, error) {
	t := time.Now()
	ctx, finish, err := s.begin(ctx)
	tr.add(stageAdmission, time.Since(t))
	if err != nil {
		return nil, "", err
	}
	defer finish()
	run := func() (*Cached, error) { return s.compute(ctx, tr, q, opts, bound) }
	// The cache stage spans key encoding through the probe's resolution:
	// for a miss it ends when this caller starts computing; for a hit or a
	// coalesced wait it ends when the response is in hand.
	tCache := time.Now()
	probed := false
	probeDone := func() {
		if !probed {
			probed = true
			tr.add(stageCache, time.Since(tCache))
		}
	}
	if len(q.Terms) == 0 {
		probeDone()
		return nil, "", search.ErrEmptyQuery
	}
	key := cacheKey(q, opts, bound)
	v, outcome, err := s.cache.do(ctx, key, func() (*Cached, error) {
		probeDone()
		v, err := run()
		if v != nil {
			v.cache, v.key = s.cache, key
		}
		return v, err
	})
	probeDone()
	if err != nil && isContextError(err) && ctx.Err() == nil {
		// A coalesced leader hit its own cancellation or deadline, not
		// ours: our context is still live, so compute privately rather
		// than inherit a failure this caller never had.
		v, err := run()
		return v, outcomeMiss, err
	}
	return v, outcome, err
}

func isContextError(err error) bool {
	return errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)
}
