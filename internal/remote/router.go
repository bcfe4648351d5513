package remote

import (
	"context"
	"errors"
	"net"
	"slices"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"extract/internal/core"
	"extract/internal/index"
	"extract/internal/ingest"
	"extract/internal/search"
	"extract/internal/shard"
	"extract/internal/telemetry"
)

// mix64 is the SplitMix64 finalizer — the rendezvous-hash mixer placement
// scores shards with.
func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// PlaceShards assigns every shard of a generation to a replica group by
// rendezvous-hashing its manifest content hash against each group index:
// out[i] is shard i's group. The assignment is a pure function of content
// and group count — every router and every shard server configured with
// the same snapshot and group count computes the identical placement, with
// no coordination state; content-identical shards always land on the same
// group, and changing one shard moves only that shard.
func PlaceShards(src ingest.Source, groups int) []int {
	out := make([]int, len(src.Shards))
	for i, h := range src.Shards {
		best, bestScore := 0, uint64(0)
		for g := 0; g < groups; g++ {
			s := mix64(h ^ mix64(uint64(g)+0x9e3779b97f4a7c15))
			if g == 0 || s > bestScore {
				best, bestScore = g, s
			}
		}
		out[i] = best
	}
	return out
}

// OwnedShards lists the shard indices PlaceShards assigns to one group —
// the subset a shard server in that group evaluates (Server's
// WithOwnedShards input).
func OwnedShards(src ingest.Source, group, groups int) []uint32 {
	var owned []uint32
	for i, g := range PlaceShards(src, groups) {
		if g == group {
			owned = append(owned, uint32(i))
		}
	}
	return owned
}

// placement is one immutable generation of the router's world view: the
// shard→group assignment and the generation fingerprint every response
// must echo. Reload swaps it atomically; queries in flight finish on the
// placement they loaded.
type placement struct {
	src         ingest.Source
	fingerprint uint64
	groupOf     []int
	byGroup     [][]uint32 // group → its shard indices, ascending

	// stats caches the corpus-wide ranking statistics (document frequency
	// per keyword, total element count) fetched from the serving tier;
	// one cache per generation, so a reload never serves stale counts.
	stats struct {
		sync.Mutex
		df    map[string]int
		total int // 0 = not yet fetched
	}
}

// group is one replica group with its rotation counter for spreading
// first-attempt load across peers.
type group struct {
	replicas []*replica
	rr       atomic.Uint32
}

// Router is the stateless routing half of the distributed tier: a
// serve.Backend that answers a query by running shard.Merge — the protocol
// the in-process sharded corpus answers by — over rounds served by
// shard-server replica groups, which also make the snippets, so a routed
// answer is byte-identical to a local one. "Stateless" means no
// query state and no placement authority: everything the router knows is
// recomputed from the snapshot manifest, and two routers over the same
// snapshot agree without talking to each other.
//
// A dead replica degrades to its peer, not to an error: transport
// failures, protocol violations, generation skew and server-side faults
// fail over within the shard's group (a failure-counting circuit breaker
// skips persistently dead replicas); only genuine query classifications —
// empty query, cancellation, deadline — propagate.
type Router struct {
	analysis *core.Corpus
	groups   []*group
	all      []*replica // flat, for calls any replica can serve
	allRR    atomic.Uint32

	place atomic.Pointer[placement]

	reg     *telemetry.Registry
	metrics *routerMetrics

	mu     sync.Mutex
	closed bool
}

// RouterOption configures NewRouter.
type RouterOption func(*Router)

// WithDialer substitutes the function that dials replica addresses
// (default: TCP). Tests use it for in-process loopback transports.
func WithDialer(dial func(ctx context.Context, addr string) (net.Conn, error)) RouterOption {
	return func(rt *Router) {
		for _, r := range rt.all {
			r.dial = dial
		}
	}
}

// WithRouterTelemetry registers the router's remote-call metrics on reg.
// Series are labeled by replica group, so registration happens once the
// group count is known (in NewRouter, after options run).
func WithRouterTelemetry(reg *telemetry.Registry) RouterOption {
	return func(rt *Router) { rt.reg = reg }
}

// NewRouter builds a router over replica groups (groups[g] lists the
// addresses of group g's replicas; every address in a group serves the
// same shard subset). analysis carries the snapshot's shared analysis
// artifacts (classification, keys — what snippet generation needs) and src
// its manifest identity; placement is computed from src immediately.
func NewRouter(analysis *core.Corpus, src ingest.Source, groups [][]string, opts ...RouterOption) (*Router, error) {
	if len(groups) == 0 {
		return nil, errors.New("remote: router needs at least one replica group")
	}
	rt := &Router{analysis: analysis}
	for _, addrs := range groups {
		if len(addrs) == 0 {
			return nil, errors.New("remote: empty replica group")
		}
		g := &group{}
		for _, addr := range addrs {
			r := &replica{addr: addr, dial: netDial}
			g.replicas = append(g.replicas, r)
			rt.all = append(rt.all, r)
		}
		rt.groups = append(rt.groups, g)
	}
	for _, o := range opts {
		o(rt)
	}
	if rt.reg == nil {
		rt.reg = telemetry.NewRegistry()
	}
	rt.metrics = newRouterMetrics(rt.reg, len(rt.groups))
	rt.Reload(src)
	return rt, nil
}

// OpenSnapshot builds a router from a snapshot directory (any shard count):
// the manifest supplies the placement identity, the analysis image the
// snippet artifacts — one coherent read of both (ingest.LoadHead). The
// shard images themselves are not loaded — the serving tier owns them.
func OpenSnapshot(dir string, groups [][]string, opts ...RouterOption) (*Router, error) {
	analysis, src, err := ingest.LoadHead(dir)
	if err != nil {
		return nil, err
	}
	return NewRouter(analysis, src, groups, opts...)
}

// Reload recomputes placement for a new snapshot generation and swaps it
// in atomically. Queries already in flight finish against the old
// placement — their responses' fingerprints still match it, so they are
// internally consistent; the skew check only rejects mixing generations
// within one query.
func (rt *Router) Reload(src ingest.Source) {
	pl := &placement{
		src:         src,
		fingerprint: Fingerprint(src),
		groupOf:     PlaceShards(src, len(rt.groups)),
		byGroup:     make([][]uint32, len(rt.groups)),
	}
	for i, g := range pl.groupOf {
		pl.byGroup[g] = append(pl.byGroup[g], uint32(i))
	}
	pl.stats.df = make(map[string]int)
	rt.place.Store(pl)
}

// ReloadSnapshot re-reads a snapshot directory's manifest and analysis and
// swaps the router onto that generation — the router half of an online
// reload (shard servers swap via Server.Swap). Source then reports the
// identity that was placed.
func (rt *Router) ReloadSnapshot(dir string) error {
	analysis, src, err := ingest.LoadHead(dir)
	if err != nil {
		return err
	}
	rt.mu.Lock()
	rt.analysis = analysis
	rt.mu.Unlock()
	rt.Reload(src)
	return nil
}

// Source returns the generation identity the router currently places shards
// by — the one every response's fingerprint is checked against. A caller
// that records the routed generation's identity takes it from here rather
// than reading the snapshot directory a second time, which a writer could
// have refreshed in between.
func (rt *Router) Source() ingest.Source { return rt.place.Load().src }

// Close severs every pooled connection; in-flight calls fail over and then
// error out.
func (rt *Router) Close() {
	rt.mu.Lock()
	rt.closed = true
	rt.mu.Unlock()
	for _, r := range rt.all {
		r.close()
	}
}

// NumShards returns the current generation's shard count.
func (rt *Router) NumShards() int { return len(rt.place.Load().groupOf) }

// Analysis returns the document-less corpus carrying the snapshot's
// classification and keys — what the facade's own snippet generation
// (Corpus.Snippet) and its entity and key lookups read; served snippets are
// the shard servers'.
func (rt *Router) Analysis() *core.Corpus {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	return rt.analysis
}

// Engines returns nil: the router holds no local engines, and its Answer
// ignores the engine set. The serving layer's per-option engine memo
// degenerates to a no-op.
func (rt *Router) Engines(opts search.Options) []*search.Engine { return nil }

// ctxTimeoutMillis converts ctx's deadline to the wire's timeout field
// (0 = none), so shard servers stop evaluating queries the router has
// already given up on.
func ctxTimeoutMillis(ctx context.Context) uint64 {
	d, ok := ctx.Deadline()
	if !ok {
		return 0
	}
	ms := time.Until(d).Milliseconds()
	if ms < 1 {
		ms = 1
	}
	return uint64(ms)
}

// groupCall performs one remote call against a replica set with failover:
// replicas are tried in rotation order (breaker-open ones last, as
// half-open probes), and any transport, protocol, skew or server-fault
// failure moves on to the next peer. Every response opens with the same
// header (decodeRespHeader): groupCall checks its fingerprint against the
// query's placement — a mismatch is generation skew — and takes the
// server-reported stage breakdown from it, then hands the body to decode,
// the call site's payload decoder, whose failure is itself grounds for
// failover. Only context failures and genuine query classifications end the
// loop early. A decoded payload goes to hold when the decoder kept ranges of
// it, and back to the frame pool otherwise.
//
// group labels the call's metrics, and every attempt — failed or not — is
// appended as a hop span to the query's SpanSink when the context carries
// one, so a slow or failed-over query can be attributed to the exact
// replica, attempt and server-side stage afterwards.
func (rt *Router) groupCall(ctx context.Context, replicas []*replica, rr *atomic.Uint32, kind, group string, t msgType, payload []byte, want msgType, fingerprint uint64, decode func(body []byte) error, hold func(payload []byte)) error {
	start := time.Now()
	outcome := "error"
	defer func() {
		rt.metrics.observe(kind, outcome, group, time.Since(start))
	}()
	sink := telemetry.SpanSinkFrom(ctx)
	var traceID uint64
	if sink != nil {
		traceID = uint64(sink.TraceID)
	}
	hop := func(r *replica, attempt int, wire time.Duration, st serverStages, errClass string) {
		if sink == nil {
			return
		}
		sink.Add(telemetry.HopSpan{
			Kind: kind, Group: group, Replica: r.addr, Attempt: attempt,
			Wire:         wire,
			ServerDecode: time.Duration(st.decodeNs),
			ServerEval:   time.Duration(st.evalNs),
			ServerEncode: time.Duration(st.encodeNs),
			Err:          errClass,
		})
	}

	n := len(replicas)
	order := make([]*replica, 0, n)
	var open []*replica
	first := int(rr.Add(1) - 1)
	now := time.Now()
	for i := 0; i < n; i++ {
		r := replicas[(first+i)%n]
		if r.available(now) {
			order = append(order, r)
		} else {
			open = append(open, r)
		}
	}
	order = append(order, open...)

	var lastErr error
	for i, r := range order {
		if i > 0 {
			rt.metrics.failover(group)
		}
		attemptStart := time.Now()
		resp, serr, err := r.call(ctx, t, payload, want, traceID)
		wire := time.Since(attemptStart)
		if err != nil {
			if ctx.Err() != nil && errors.Is(err, ctx.Err()) {
				hop(r, i, wire, serverStages{}, "canceled")
				return err
			}
			hop(r, i, wire, serverStages{}, remoteErrClass(err))
			lastErr = err
			continue
		}
		if serr != nil {
			mapped, failover := mapServerErr(r.addr, *serr)
			hop(r, i, wire, serverStages{}, errKindClass(serr.kind))
			if !failover {
				return mapped
			}
			lastErr = mapped
			continue
		}
		fp, st, body, err := decodeRespHeader(resp)
		if err == nil && fp != fingerprint {
			err = errSkew
		}
		if err == nil {
			err = decode(body)
		}
		if err != nil || hold == nil {
			putFrame(resp)
		} else {
			hold(resp)
		}
		if err != nil {
			kind := ErrKindProtocol
			if errors.Is(err, errSkew) {
				kind = ErrKindSkew
			}
			hop(r, i, wire, serverStages{}, kind)
			lastErr = &RemoteError{Addr: r.addr, Kind: kind, Err: err}
			continue
		}
		hop(r, i, wire, st, "")
		outcome = "ok"
		return nil
	}
	if lastErr == nil {
		lastErr = &RemoteError{Kind: ErrKindUnavailable, Msg: "no replicas configured"}
	}
	return lastErr
}

// remoteErrClass condenses a call error to the failover-cause label a hop
// span carries.
func remoteErrClass(err error) string {
	var re *RemoteError
	if errors.As(err, &re) {
		return re.Kind
	}
	return ErrKindTransport
}

// errKindClass maps a wire error classification to its hop-span label.
func errKindClass(k errKind) string {
	switch k {
	case errKindEmptyQuery:
		return "empty-query"
	case errKindCanceled:
		return "canceled"
	case errKindDeadline:
		return "deadline"
	case errKindPanic:
		return ErrKindPanic
	case errKindBadShard:
		return ErrKindBadShard
	default:
		return ErrKindInternal
	}
}

// mapServerErr converts a server-side error classification into the error
// the caller sees, and reports whether it is grounds for failover (a
// replica-local fault) or a query classification to propagate.
func mapServerErr(addr string, e errMsg) (error, bool) {
	switch e.kind {
	case errKindEmptyQuery:
		return search.ErrEmptyQuery, false
	case errKindCanceled:
		return context.Canceled, false
	case errKindDeadline:
		return context.DeadlineExceeded, false
	case errKindPanic:
		return &RemoteError{Addr: addr, Kind: ErrKindPanic, Msg: e.msg}, true
	case errKindBadShard:
		return &RemoteError{Addr: addr, Kind: ErrKindBadShard, Msg: e.msg}, true
	default:
		return &RemoteError{Addr: addr, Kind: ErrKindInternal, Msg: e.msg}, true
	}
}

// SearchEnginesContext answers a query from the replica groups, search only:
// Answer with no snippet bound. engines is ignored (the router has none).
func (rt *Router) SearchEnginesContext(ctx context.Context, query string, opts search.Options, engines []*search.Engine, run shard.Runner) ([]*search.Result, error) {
	rs, _, err := rt.Answer(ctx, query, opts, engines, run, -1)
	return rs, err
}

// Answer answers a query from the replica groups by the same protocol as the
// in-process sharded path — shard.Merge, here over rounds that cross the wire
// (routedRounds) — so a routed answer is a local one, whatever the shard
// count. With bound >= 0 the shard servers snippet the results they ship, on
// their index, by the same fan-out a local corpus runs (shard.Snippets), so
// the snippets are the local ones too. Responses are validated as they arrive
// — a malformed one fails over inside its hop — and only the results the
// merge takes become answers: deferred results (take), whose trees are built
// only when something reads one, and the snippets that arrived with them.
// engines is ignored (the router has none); run schedules the per-group
// fan-out, so the serving layer's worker pool bounds remote concurrency
// exactly as it bounds local shard evaluation.
func (rt *Router) Answer(ctx context.Context, query string, opts search.Options, _ []*search.Engine, run shard.Runner, bound int) ([]*search.Result, []*core.Generated, error) {
	pl := rt.place.Load()
	if len(pl.groupOf) == 0 || len(search.ParseQuery(query)) == 0 {
		return nil, nil, search.ErrEmptyQuery
	}
	r := &routedRounds{rt: rt, pl: pl, query: query, opts: opts, run: run, bound: max(bound, -1)}
	defer r.release()
	winners, err := shard.Merge(ctx, opts, r)
	if err != nil {
		return nil, nil, err
	}
	if err := ctx.Err(); err != nil {
		return nil, nil, err
	}
	rt.metrics.taken.Add(int64(len(winners)))
	rt.metrics.dropped.Add(int64(r.shipped - len(winners)))
	rs := make([]*search.Result, len(winners))
	for i, w := range winners {
		rs[i] = w.take(r.whole)
	}
	if bound < 0 {
		return rs, nil, nil
	}
	kws := index.Tokenize(query)
	gs := make([]*core.Generated, len(winners))
	for i, w := range winners {
		gs[i] = buildSnippet(w.snippet, kws, bound)
	}
	return rs, gs, nil
}

// routedRounds is shard.Merge's source of evidence for one routed query, on
// one placement generation: round one is a fan-out of remote calls, one per
// replica group, scheduled through run; round two is one call any replica
// answers.
// A result is a scanned byte range of the response that shipped it —
// validated, counted, not built — because which results win is decided by
// the per-shard counts alone.
type routedRounds struct {
	rt    *Router
	pl    *placement
	query string
	opts  search.Options
	run   shard.Runner
	bound int // snippet bound the servers apply; -1 = search only

	shipped int  // results scanned out of this query's responses
	whole   bool // the answer is the whole-document round's

	// frames are the response payloads the scanned ranges alias, released
	// to the frame pool once the answer has copied out what it keeps.
	mu     sync.Mutex
	frames [][]byte
}

func (r *routedRounds) hold(payload []byte) {
	r.mu.Lock()
	r.frames = append(r.frames, payload)
	r.mu.Unlock()
}

func (r *routedRounds) release() {
	for _, f := range r.frames {
		putFrame(f)
	}
	r.frames = nil
}

// Eval asks every group for its shard subset's partials. A snippeted request
// is answered with a snippet per shipped result, except by a server whose own
// shards include a root-anchored one: that sends the merge to the whole
// document, so it snippets nothing — which the decoder holds it to.
func (r *routedRounds) Eval(ctx context.Context) ([]shard.Partial[scanned], error) {
	rt, pl := r.rt, r.pl
	timeout := ctxTimeoutMillis(ctx)
	resps := make([]evalResp, len(rt.groups))
	errs := make([]error, len(rt.groups))
	tasks := make([]func(), 0, len(rt.groups))
	for g, shards := range pl.byGroup {
		if len(shards) == 0 {
			continue
		}
		payload := encodeEvalReq(evalReq{opts: r.opts, query: r.query, timeoutMillis: timeout, shards: shards, bound: r.bound})
		tasks = append(tasks, func() {
			errs[g] = rt.groupCall(ctx, rt.groups[g].replicas, &rt.groups[g].rr, "eval", strconv.Itoa(g), msgEval, payload, msgEvalResp, pl.fingerprint, func(body []byte) error {
				resp, err := decodeEvalResp(body)
				if err != nil {
					return err
				}
				if !slices.EqualFunc(resp.shards, shards, func(s shardResp, want uint32) bool { return s.shard == want }) {
					return shardEchoErr(shards)
				}
				rootAnchored := slices.ContainsFunc(resp.shards, func(s shardResp) bool { return s.digest.RootAnchored })
				if resp.snippeted != (r.bound >= 0 && !rootAnchored) {
					return protocolErrf("eval response snippeted = %v for bound %d, root-anchored %v", resp.snippeted, r.bound, rootAnchored)
				}
				resps[g] = resp
				return nil
			}, r.hold)
		})
	}
	if err := shard.Run(r.run, tasks); err != nil {
		return nil, err
	}
	// The first failure in group order.
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	parts := make([]shard.Partial[scanned], len(pl.groupOf))
	for _, resp := range resps {
		for _, s := range resp.shards {
			parts[s.shard] = shard.Partial[scanned]{Digest: s.digest, Results: s.results}
			r.shipped += len(s.results)
		}
	}
	return parts, nil
}

// Whole asks any replica for the whole-document evaluation (every shard
// server holds the full snapshot), snippeted when the query is. Its frame
// is never released to the pool: the answer's results keep their ranges of
// it (take).
func (r *routedRounds) Whole(ctx context.Context) ([]scanned, error) {
	var fr fullResp
	payload := encodeEvalReq(evalReq{opts: r.opts, query: r.query, timeoutMillis: ctxTimeoutMillis(ctx), bound: r.bound})
	err := r.rt.groupCall(ctx, r.rt.all, &r.rt.allRR, "full", "any", msgFull, payload, msgFullResp, r.pl.fingerprint, func(body []byte) error {
		resp, err := decodeFullResp(body)
		if err != nil {
			return err
		}
		if resp.snippeted != (r.bound >= 0) {
			return protocolErrf("full response snippeted = %v for bound %d", resp.snippeted, r.bound)
		}
		fr = resp
		return nil
	}, func([]byte) {})
	if err != nil {
		return nil, err
	}
	r.whole = true
	r.shipped += len(fr.results)
	return fr.results, nil
}

// shardEchoErr refuses a response that does not cover exactly the requested
// shards, in order — a server echoing a different set (a buggy or skewed
// peer) must not silently drop shards from the merge.
func shardEchoErr(want []uint32) error {
	return protocolErrf("response does not cover exactly the requested shards %v", want)
}

// statsFor fetches (and caches, per generation) the corpus-wide ranking
// statistics for one keyword. Any replica can answer; a failure returns
// zero counts, degrading ranking for the query rather than failing it.
func (rt *Router) statsFor(keyword string) (df, total int) {
	pl := rt.place.Load()
	pl.stats.Lock()
	cachedDF, ok := pl.stats.df[keyword]
	cachedTotal := pl.stats.total
	pl.stats.Unlock()
	if ok && cachedTotal > 0 {
		return cachedDF, cachedTotal
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	var sr statsResp
	err := rt.groupCall(ctx, rt.all, &rt.allRR, "stats", "any", msgStats,
		encodeStatsReq(statsReq{keywords: []string{keyword}}), msgStatsResp, pl.fingerprint, func(body []byte) error {
			resp, err := decodeStatsResp(body)
			if err != nil {
				return err
			}
			if len(resp.counts) != 1 {
				return protocolErrf("stats response with %d counts, want 1", len(resp.counts))
			}
			sr = resp
			return nil
		}, nil)
	if err != nil {
		return 0, cachedTotal
	}
	df, total = int(sr.counts[0]), int(sr.totalElements)
	pl.stats.Lock()
	pl.stats.df[keyword] = df
	pl.stats.total = total
	pl.stats.Unlock()
	return df, total
}

// Count returns the corpus-wide document frequency of one keyword — the
// ranking scorer's df input, fetched from the serving tier and cached per
// generation.
func (rt *Router) Count(keyword string) int {
	df, _ := rt.statsFor(keyword)
	return df
}

// TotalElements returns the corpus-wide element count — the ranking
// scorer's N, fetched from the serving tier and cached per generation.
func (rt *Router) TotalElements() int {
	_, total := rt.statsFor("")
	return total
}

// routerMetrics pre-registers the router's telemetry series, labeled by
// replica group so a sick group is attributable from metrics alone; see
// OBSERVABILITY.md for the contract. Numbered groups carry the per-group
// call kind (eval); the "any" pseudo-group carries the calls any replica may
// serve (full, stats).
type routerMetrics struct {
	calls     map[[3]string]*telemetry.Counter // kind, outcome, group
	failovers map[string]*telemetry.Counter    // group
	seconds   map[string]*telemetry.Histogram  // group

	// taken and dropped count shipped results by fate: taken into the answer
	// (as deferred results), or scanned and skipped because the merge cut (or
	// the root fallback) discarded them.
	taken, dropped *telemetry.Counter
}

// groupCallKinds are the per-replica-group call kinds; anyCallKinds the
// kinds served by any replica.
var (
	groupCallKinds = []string{"eval"}
	anyCallKinds   = []string{"full", "stats"}
)

func newRouterMetrics(reg *telemetry.Registry, ngroups int) *routerMetrics {
	m := &routerMetrics{
		calls:     make(map[[3]string]*telemetry.Counter),
		failovers: make(map[string]*telemetry.Counter),
		seconds:   make(map[string]*telemetry.Histogram),
	}
	add := func(group string, kinds []string) {
		for _, k := range kinds {
			for _, o := range []string{"ok", "error"} {
				m.calls[[3]string{k, o, group}] = reg.Counter("extract_remote_calls_total",
					"Remote shard-server calls by call kind, outcome and replica group.",
					telemetry.L("kind", k), telemetry.L("outcome", o), telemetry.L("group", group))
			}
		}
		m.failovers[group] = reg.Counter("extract_remote_failovers_total",
			"Remote calls retried on a peer replica after a replica-local failure, by replica group.",
			telemetry.L("group", group))
		m.seconds[group] = reg.Histogram("extract_remote_call_seconds",
			"Remote call latency, including failover retries, by replica group.",
			telemetry.L("group", group))
	}
	for g := 0; g < ngroups; g++ {
		add(strconv.Itoa(g), groupCallKinds)
	}
	add("any", anyCallKinds)
	const resultsHelp = "Results shipped to the router by fate: taken into an answer, or dropped by the merge cut or the root fallback."
	m.taken = reg.Counter("extract_remote_results_total", resultsHelp, telemetry.L("fate", "taken"))
	m.dropped = reg.Counter("extract_remote_results_total", resultsHelp, telemetry.L("fate", "dropped"))
	return m
}

func (m *routerMetrics) observe(kind, outcome, group string, d time.Duration) {
	if c := m.calls[[3]string{kind, outcome, group}]; c != nil {
		c.Inc()
	}
	if h := m.seconds[group]; h != nil {
		h.Observe(d)
	}
}

func (m *routerMetrics) failover(group string) {
	if c := m.failovers[group]; c != nil {
		c.Inc()
	}
}
