package remote

import (
	"context"
	"errors"
	"fmt"
	"net"
	"slices"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
	"unsafe"

	"extract/internal/core"
	"extract/internal/ingest"
	"extract/internal/rank"
	"extract/internal/record"
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
// snapshot's analysis, the shard→group assignment and the generation
// fingerprint every response must echo. Reload swaps it atomically, so
// whatever reads one placement — a query, Analysis, Source, the statistics —
// sees one generation; queries in flight finish on the placement they loaded.
type placement struct {
	analysis    *core.Corpus
	src         ingest.Source
	fingerprint uint64
	groupOf     []int
	byGroup     [][]uint32 // group → its shard indices, ascending

	// stats caches the corpus-wide ranking statistics (document frequency
	// per keyword, up to maxCachedStats, total element count) fetched from
	// the serving tier; one cache per generation, so a reload never serves
	// stale counts.
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
// shard-server replica groups, which also make the snippets of the results
// the merge keeps, so a routed answer is byte-identical to a local one.
// "Stateless" means no query state and no placement authority: everything
// the router knows is recomputed from the snapshot manifest, and two routers
// over the same snapshot agree without talking to each other.
//
// A dead replica degrades to its peer, not to an error: transport
// failures, protocol violations, generation skew and server-side faults
// fail over within the shard's group (a failure-counting circuit breaker
// skips persistently dead replicas); only genuine query classifications —
// empty query, cancellation, deadline — propagate.
type Router struct {
	groups []*group
	all    []*replica // flat, for calls any replica can serve
	allRR  atomic.Uint32

	place atomic.Pointer[placement]

	reg     *telemetry.Registry
	metrics *routerMetrics
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
	rt := &Router{}
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
	rt.place.Store(rt.newPlacement(analysis, src))
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

// newPlacement places src's shards over the router's groups.
func (rt *Router) newPlacement(analysis *core.Corpus, src ingest.Source) *placement {
	pl := &placement{
		analysis:    analysis,
		src:         src,
		fingerprint: Fingerprint(src),
		groupOf:     PlaceShards(src, len(rt.groups)),
		byGroup:     make([][]uint32, len(rt.groups)),
	}
	for i, g := range pl.groupOf {
		pl.byGroup[g] = append(pl.byGroup[g], uint32(i))
	}
	pl.stats.df = make(map[string]int)
	return pl
}

// ReloadSnapshot re-reads a snapshot directory's manifest and analysis and
// swaps the router onto that generation, both in one step — the router half
// of an online reload (shard servers swap via Server.Swap). Source then
// reports the identity that was placed.
func (rt *Router) ReloadSnapshot(dir string) error {
	analysis, src, err := ingest.LoadHead(dir)
	if err != nil {
		return err
	}
	rt.place.Store(rt.newPlacement(analysis, src))
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
func (rt *Router) Analysis() *core.Corpus { return rt.place.Load().analysis }

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
// loop early.
//
// group labels the call's metrics, and every attempt — failed or not — is
// appended as a hop span to the query's SpanSink when the context carries
// one, so a slow or failed-over query can be attributed to the exact
// replica, attempt and server-side stage afterwards.
func (rt *Router) groupCall(ctx context.Context, replicas []*replica, rr *atomic.Uint32, kind, group string, t msgType, payload []byte, want msgType, fingerprint uint64, decode func(body []byte) error) error {
	start := time.Now()
	outcome := "error"
	defer func() {
		rt.metrics.observe(kind, outcome, group, time.Since(start))
	}()
	sink := telemetry.SpanSinkFrom(ctx)
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
		resp, serr, err := r.call(ctx, t, payload, want)
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
	case errKindSkew:
		return ErrKindSkew
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
	case errKindSkew:
		return &RemoteError{Addr: addr, Kind: ErrKindSkew, Msg: e.msg}, true
	default:
		return &RemoteError{Addr: addr, Kind: ErrKindInternal, Msg: e.msg}, true
	}
}

// SearchEnginesContext answers a query from the replica groups, search only:
// Answer with no snippet bound, the query parsed here. engines is ignored
// (the router has none); the form is kept only for benchmark/, which calls
// this beside shard.Corpus.SearchEnginesContext.
func (rt *Router) SearchEnginesContext(ctx context.Context, query string, opts search.Options, engines []*search.Engine, run shard.Runner) ([]*search.Result, error) {
	rs, _, err := rt.Answer(ctx, search.Parse(query), opts, run, -1)
	return rs, err
}

// Answer answers a parsed query q from the replica groups by the same
// protocol as the in-process sharded path — shard.Merge, here over rounds
// that cross the wire (routedRounds) — so a routed answer is a local one,
// whatever the shard count. Responses are validated as they arrive — a
// malformed one fails over inside its hop — and only the results the merge
// takes become answers: deferred results (answerTrees.take), which carry their
// size, match depths and handle but no tree. The first read of a tree fetches
// it (answerTrees). With bound >= 0 the shard servers snippet the results
// taken, on their index, by the same fan-out a local corpus runs
// (shard.Records), so the snippets are the local ones too: a winner of a
// group's leading run of shards
// (shard.LeadingRun) arrives with its snippet in the eval round, a
// whole-document answer's every result with its snippet in the full round,
// and the snippets of the other winners are asked for by handle once the
// merge has cut (snippets). run schedules the per-group fan-outs, so the
// serving layer's worker pool bounds remote concurrency exactly as it bounds
// local shard evaluation. The requests carry q's text, which each shard
// server parses once; everything the router reads of the query — the term
// keys a shipped result's depths follow, the snippet keywords — is q's.
func (rt *Router) Answer(ctx context.Context, q search.Query, opts search.Options, run shard.Runner, bound int) ([]*search.Result, []*core.Generated, error) {
	pl := rt.place.Load()
	if len(pl.groupOf) == 0 || len(q.Terms) == 0 {
		return nil, nil, search.ErrEmptyQuery
	}
	r := &routedRounds{rt: rt, pl: pl, q: q, opts: opts, run: run, bound: max(bound, -1)}
	winners, err := shard.Merge(ctx, opts, r, scanned.lcaPos)
	if err != nil {
		return nil, nil, err
	}
	if err := ctx.Err(); err != nil {
		return nil, nil, err
	}
	rt.metrics.taken.Add(int64(len(winners)))
	rt.metrics.dropped.Add(int64(r.shipped - len(winners)))
	at, rs := newAnswerTrees(rt, pl, q, opts, winners)
	if bound < 0 {
		return rs, nil, nil
	}
	gs, err := r.snippets(ctx, winners, at.handles)
	if err != nil {
		return nil, nil, err
	}
	return rs, gs, nil
}

// routedRounds is shard.Merge's source of evidence for one routed query, on
// one placement generation: round one is a fan-out of remote calls, one per
// replica group, scheduled through run; round two is one call any replica
// answers. After the merge, it serves the snippets the rounds carried and
// fetches those of the other winners (snippets).
// A result is a scanned byte range of the response that shipped it —
// validated, counted, not taken — because which results win is decided by
// the per-shard counts alone.
type routedRounds struct {
	rt    *Router
	pl    *placement
	q     search.Query // every shipped result carries a depth for each of its terms
	opts  search.Options
	run   shard.Runner
	bound int // the snippet bound; -1 = search only

	shipped  int  // results scanned out of this query's responses
	records  int  // snippet records scanned out of them
	roundTwo bool // the full round answered
}

// Eval asks every group for its shard subset's partials: per shard its digest
// and the counts and handles of the results it ships, and with a snippet
// bound the snippet records of the group's leading run of shards
// (shard.LeadingRun), unless a shard of the group is root-anchored — records
// anywhere else refuse the response (decodeEvalResp), and the call fails
// over.
func (r *routedRounds) Eval(ctx context.Context) ([]shard.Partial[scanned], error) {
	rt, pl := r.rt, r.pl
	timeout := ctxTimeoutMillis(ctx)
	resps := make([]evalResp, len(rt.groups))
	calls := make([]func() error, len(rt.groups))
	for g, shards := range pl.byGroup {
		if len(shards) == 0 {
			continue
		}
		lead := -1
		if r.bound >= 0 {
			lead = shard.LeadingRun(shards)
		}
		payload := encodeEvalReq(evalReq{opts: r.opts, query: r.q.Text, timeoutMillis: timeout, shards: shards, bound: r.bound})
		calls[g] = func() error {
			return rt.groupCall(ctx, rt.groups[g].replicas, &rt.groups[g].rr, "eval", strconv.Itoa(g), msgEval, payload, msgEvalResp, pl.fingerprint, func(body []byte) error {
				resp, err := decodeEvalResp(body, len(r.q.Terms), lead)
				if err != nil {
					return err
				}
				if !slices.EqualFunc(resp.shards, shards, func(s shardResp, want uint32) bool { return s.shard == want }) {
					return shardEchoErr(shards)
				}
				resps[g] = resp
				return nil
			})
		}
	}
	if err := fanOut(r.run, calls); err != nil {
		return nil, err
	}
	parts := make([]shard.Partial[scanned], len(pl.groupOf))
	for _, resp := range resps {
		for _, s := range resp.shards {
			parts[s.shard] = shard.Partial[scanned]{Digest: s.digest, Results: s.results}
			r.shipped += len(s.results)
			for _, x := range s.results {
				if x.rec != "" {
					r.records++
				}
			}
		}
	}
	return parts, nil
}

// Whole asks any replica for the whole-document answer (every shard server
// holds the full snapshot and composes it from its own round one): counts
// and handles, like Eval — each result under the shard it lives in, the
// root-anchored one under a whole handle — and with a snippet bound every
// result's snippet record. The router's partials are trimmed handles, so it
// composes nothing itself.
func (r *routedRounds) Whole(ctx context.Context, _ []shard.Partial[scanned], _ bool) ([]scanned, error) {
	var results []scanned
	payload := encodeEvalReq(evalReq{opts: r.opts, query: r.q.Text, timeoutMillis: ctxTimeoutMillis(ctx), bound: r.bound})
	err := r.rt.groupCall(ctx, r.rt.all, &r.rt.allRR, "full", "any", msgFull, payload, msgFullResp, r.pl.fingerprint, func(body []byte) error {
		rs, err := decodeFullResp(body, len(r.q.Terms), len(r.pl.groupOf), r.bound >= 0)
		if err != nil {
			return err
		}
		results = rs
		return nil
	})
	if err != nil {
		return nil, err
	}
	r.shipped += len(results)
	r.roundTwo = true
	if r.bound >= 0 {
		r.records += len(results)
	}
	return results, nil
}

// snippets returns the snippets of the merge's winners at the query's bound,
// aligned with them, all cut from one slab (core.ServedSnippets). A winner
// whose response carried its snippet record is kept as it is
// (core.ServedSnippets.Serve), over the payload it arrived in, which nothing
// may reuse (readFrame); the others' are fetched by handle: one
// snippets call per replica group holding any of them — a group whose
// results the cut dropped, or whose winners all arrived with their records,
// is not asked (byHandle) — the calls scheduled through run, within the
// query's context, against the fingerprint of the generation that answered
// the merge. A replica on another generation fails over within its group;
// when none holds it, the query fails with the skew, never with another
// generation's snippet. The records of results the answer does not keep —
// round one's, when round two answered — are discarded. The stage's wall
// time is the query's snippet stage on its span sink.
func (r *routedRounds) snippets(ctx context.Context, winners []scanned, handles []handle) ([]*core.Generated, error) {
	gs, slab := make([]*core.Generated, len(winners)), core.NewServedSnippets(len(winners))
	start := time.Now()
	kws := r.q.Keywords
	var fetch []int
	carried := 0
	for i, w := range winners {
		if w.rec == "" {
			fetch = append(fetch, i)
			continue
		}
		carried++
		gs[i] = slab.Serve(i, w.rec, kws, r.bound)
	}
	var err error
	if len(fetch) > 0 {
		req := treesReq{opts: r.opts, query: r.q.Text, fingerprint: r.pl.fingerprint, bound: r.bound}
		err = r.rt.byHandle(ctx, r.pl, r.run, msgSnippets, req, handles, fetch, func(body []byte, idx []int) error {
			return takeSnippets(body, kws, r.bound, slab, gs, idx)
		})
	}
	if sink := telemetry.SpanSinkFrom(ctx); sink != nil {
		sink.NoteSnippets(time.Since(start))
	}
	if err != nil {
		return nil, err
	}
	fromEval, fromFull := carried, 0
	if r.roundTwo {
		fromEval, fromFull = 0, carried
	}
	r.rt.metrics.snippetsServed(fromEval, fromFull, len(fetch), r.records-carried)
	return gs, nil
}

// takeSnippets decodes one snippets response, which answers the handles at
// positions idx in request order, into gs at those positions: every record
// validated (decodeSnippetsResp), then kept as it is, in its slot of slab
// (core.ServedSnippets.Serve).
func takeSnippets(body []byte, kws []string, bound int, slab core.ServedSnippets, gs []*core.Generated, idx []int) error {
	recs, err := decodeSnippetsResp(body)
	if err != nil {
		return err
	}
	if len(recs) != len(idx) {
		return protocolErrf("snippets response carries %d snippets for %d handles", len(recs), len(idx))
	}
	for k, rec := range recs {
		gs[idx[k]] = slab.Serve(idx[k], unsafeString(rec), kws, bound)
	}
	return nil
}

// groupOfHandle returns the replica group that serves handle h: an index into
// the router's groups, or len(pl.byGroup) — the "any" pseudo-group, every
// replica — for a whole handle (a round-two answer's root-anchored result).
func (pl *placement) groupOfHandle(h handle) int {
	if h.shard == wholeShard {
		return len(pl.byGroup)
	}
	return pl.groupOf[h.shard]
}

// byHandle is the by-handle fan-out of trees and snippets calls (t is msgTrees
// or msgSnippets): the results at positions idx of handles, grouped by the
// replica group that serves them (groupOfHandle), make one call a group —
// req with that group's handles and ctx's remaining time — scheduled through
// run (nil: one goroutine a call), each against pl's fingerprint. decode gets
// a group's response body and the positions it answers, in request order.
// It returns the first failure in group order.
func (rt *Router) byHandle(ctx context.Context, pl *placement, run shard.Runner, t msgType, req treesReq, handles []handle, idx []int, decode func(body []byte, idx []int) error) error {
	kind, want := "trees", msgTreesResp
	if t == msgSnippets {
		kind, want = "snippets", msgSnippetsResp
	}
	byGroup := make([][]int, len(rt.groups)+1)
	for _, i := range idx {
		g := pl.groupOfHandle(handles[i])
		byGroup[g] = append(byGroup[g], i)
	}
	req.timeoutMillis = ctxTimeoutMillis(ctx)
	calls := make([]func() error, len(byGroup))
	for g, idx := range byGroup {
		if len(idx) == 0 {
			continue
		}
		req.handles = make([]handle, len(idx))
		for k, i := range idx {
			req.handles[k] = handles[i]
		}
		payload := encodeTreesReq(req)
		replicas, rr, label := rt.all, &rt.allRR, "any"
		if g < len(rt.groups) {
			replicas, rr, label = rt.groups[g].replicas, &rt.groups[g].rr, strconv.Itoa(g)
		}
		calls[g] = func() error {
			return rt.groupCall(ctx, replicas, rr, kind, label, t, payload, want, pl.fingerprint, func(body []byte) error { return decode(body, idx) })
		}
	}
	return fanOut(run, calls)
}

// fanOut runs every non-nil call, one a replica group, through run, and
// returns the runner's failure, or else the first call's failure in group
// order.
func fanOut(run shard.Runner, calls []func() error) error {
	errs := make([]error, len(calls))
	tasks := make([]func(), 0, len(calls))
	for g, call := range calls {
		if call != nil {
			tasks = append(tasks, func() { errs[g] = call() })
		}
	}
	if err := shard.Run(run, tasks); err != nil {
		return err
	}
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// ErrResultGone is a routed result's tree read after every replica that could
// serve it has moved off the generation that answered the query (a reload
// between the answer and the read): the tree is never fetched from another
// generation. The error wraps the replicas' last *RemoteError, of kind
// ErrKindSkew.
var ErrResultGone = errors.New("remote: result's generation is no longer served")

// answerTrees is where one routed answer's trees come from — the
// search.Source of its deferred results: its query, options and placement —
// the generation that answered — and every taken result's handle. The first
// read of any tree fetches the trees of every result of the answer at once,
// by the fan-out snippets take too
// (byHandle): one trees call per replica group holding some of them (a
// result anchored at the root to any replica), the calls running concurrently,
// against the answer's fingerprint, not the router's current placement. A
// group whose call fails is asked again by the next read; the trees that did
// arrive are kept.
type answerTrees struct {
	rt      *Router
	pl      *placement
	q       search.Query
	opts    search.Options
	handles []handle

	mu     sync.Mutex
	trees  []*search.Result // aligned with handles, made by the first fetch; nil until fetched
	flight chan struct{}    // closed when the running fetch ends; nil when none runs
}

// newAnswerTrees makes the answer of pl's generation whose results are
// winners (take). An answer that never reads a tree allocates no slot for
// one: the first fetch makes them (Tree).
func newAnswerTrees(rt *Router, pl *placement, q search.Query, opts search.Options, winners []scanned) (*answerTrees, []*search.Result) {
	at := &answerTrees{rt: rt, pl: pl, q: q, opts: opts, handles: make([]handle, len(winners))}
	return at, at.take(winners)
}

// take turns the merge's winners into the deferred results the router
// answers with (search.Defer), their handles recorded in at: each result's
// size, and its match depths keyed by the answer's own term keys, so nothing
// of the frame is kept. The results and their pending state are one slab,
// and the depths of every winner are one more, of the exact size; nothing is
// allocated per result. The serving layer prices every result at a header
// (serve.Cached's cost, whose per-result charge is over twice what a result
// and its share of the slabs and of the answer's trees take), so what a
// result retains beyond it is its depths.
func (at *answerTrees) take(winners []scanned) []*search.Result {
	n := 0
	for i, w := range winners {
		at.handles[i] = w.at
		dep := record.Reader{Text: w.depths}
		for range at.q.Keys {
			if dep.Uvarint() > 0 {
				n++
			}
		}
	}
	slab := make([]search.KeywordDepth, 0, n)
	return search.Defer(at, len(winners), func(i int) (int, int, []search.KeywordDepth) {
		start := len(slab)
		dep := record.Reader{Text: winners[i].depths}
		for _, kw := range at.q.Keys {
			if d := dep.Uvarint(); d > 0 {
				slab = append(slab, search.KeywordDepth{Keyword: kw, Depth: d - 1})
			}
		}
		depths := slab[start:len(slab):len(slab)]
		return int(winners[i].nodes), len(depths) * int(unsafe.Sizeof(search.KeywordDepth{})), depths
	})
}

// Tree returns result i's tree, fetching the answer's missing trees on the
// first read. A reader waits for a fetch already running only as long as
// its own ctx allows.
func (at *answerTrees) Tree(ctx context.Context, i int) (*search.Result, error) {
	for {
		at.mu.Lock()
		if at.trees != nil && at.trees[i] != nil {
			tree := at.trees[i]
			at.mu.Unlock()
			return tree, nil
		}
		if f := at.flight; f != nil {
			at.mu.Unlock()
			select {
			case <-f:
				continue
			case <-ctx.Done():
				return nil, ctx.Err()
			}
		}
		f := make(chan struct{})
		at.flight = f
		if at.trees == nil {
			at.trees = make([]*search.Result, len(at.handles))
		}
		var missing []int
		for k, tree := range at.trees {
			if tree == nil {
				missing = append(missing, k)
			}
		}
		at.mu.Unlock()
		err := at.fetch(ctx, missing)
		at.mu.Lock()
		at.flight = nil
		tree := at.trees[i]
		at.mu.Unlock()
		close(f)
		if err != nil && tree == nil {
			return nil, err
		}
		return tree, nil
	}
}

// fetch asks each group for the trees of the results missing lists, all
// groups at once (byHandle), and builds and stores what arrives; it returns
// the first failure in group order, ErrResultGone when that is a skew. ctx
// bounds the calls, and so does backgroundCallTimeout, for a reader whose
// context has no deadline. The caller holds the flight, so the slots written
// here are not read until it ends.
func (at *answerTrees) fetch(ctx context.Context, missing []int) error {
	ctx, cancel := context.WithTimeout(ctx, backgroundCallTimeout)
	defer cancel()
	req := treesReq{opts: at.opts, query: at.q.Text, fingerprint: at.pl.fingerprint, bound: -1}
	err := at.rt.byHandle(ctx, at.pl, nil, msgTrees, req, at.handles, missing, func(body []byte, idx []int) error {
		recs, err := decodeTreesResp(body)
		if err != nil {
			return err
		}
		if len(recs) != len(idx) {
			return protocolErrf("trees response carries %d trees for %d handles", len(recs), len(idx))
		}
		for k, rec := range recs {
			at.trees[idx[k]] = rec.build()
		}
		return nil
	})
	var re *RemoteError
	if errors.As(err, &re) && re.Kind == ErrKindSkew {
		return fmt.Errorf("%w: %w", ErrResultGone, err)
	}
	return err
}

// backgroundCallTimeout bounds the calls made outside any query's context:
// the statistics, tree and completion fetches.
const backgroundCallTimeout = 10 * time.Second

// shardEchoErr refuses a response that does not cover exactly the requested
// shards, in order — a server echoing a different set (a buggy or skewed
// peer) must not silently drop shards from the merge.
func shardEchoErr(want []uint32) error {
	return protocolErrf("response does not cover exactly the requested shards %v", want)
}

// maxCachedStats bounds a generation's cached document frequencies: a full
// cache is cleared before the next keyword is added.
const maxCachedStats = 4096

// stats returns the corpus-wide document frequency of each of keys and the
// element count of pl's generation: from its cache, fetching what it lacks
// in one stats call any replica on pl's generation answers, within ctx and
// never longer than backgroundCallTimeout. A failure is returned, never
// counted as zero.
func (rt *Router) stats(ctx context.Context, pl *placement, keys []string) (map[string]int, int, error) {
	df := make(map[string]int, len(keys))
	var missing []string
	pl.stats.Lock()
	for _, k := range keys {
		n, ok := pl.stats.df[k]
		if !ok {
			missing = append(missing, k)
		}
		df[k] = n
	}
	total := pl.stats.total
	pl.stats.Unlock()
	if len(missing) == 0 && total > 0 {
		return df, total, nil
	}
	ctx, cancel := context.WithTimeout(ctx, backgroundCallTimeout)
	defer cancel()
	var sr statsResp
	err := rt.groupCall(ctx, rt.all, &rt.allRR, "stats", "any", msgStats,
		encodeStatsReq(statsReq{keywords: missing}), msgStatsResp, pl.fingerprint, func(body []byte) (err error) {
			if sr, err = decodeStatsResp(body); err == nil && len(sr.counts) != len(missing) {
				err = protocolErrf("stats response with %d counts, want %d", len(sr.counts), len(missing))
			}
			return err
		})
	if err != nil {
		return nil, 0, err
	}
	pl.stats.Lock()
	defer pl.stats.Unlock()
	pl.stats.total = int(sr.totalElements)
	for i, k := range missing {
		if len(pl.stats.df) >= maxCachedStats {
			clear(pl.stats.df)
		}
		df[k] = int(sr.counts[i])
		pl.stats.df[k] = df[k]
	}
	return df, pl.stats.total, nil
}

// Scorer returns the relevance scorer of a ranked query of term keys keys
// over the current generation's statistics (stats): a failed fetch is the
// query's error, never a scorer over zero counts.
func (rt *Router) Scorer(ctx context.Context, keys []string) (*rank.Scorer, error) {
	df, total, err := rt.stats(ctx, rt.place.Load(), keys)
	if err != nil {
		return nil, err
	}
	return rank.NewScorerFunc(func(keyword string) int { return df[keyword] }, total), nil
}

// CompletePrefix returns up to k indexed keywords starting with prefix, most
// frequent first: the corpus-wide completion (shard.Corpus.CompletePrefix),
// which any replica answers. A failure returns no keywords, degrading the
// suggestions rather than failing anything.
func (rt *Router) CompletePrefix(prefix string, k int) []string {
	if k <= 0 {
		return nil
	}
	ctx, cancel := context.WithTimeout(context.Background(), backgroundCallTimeout)
	defer cancel()
	var kws []string
	err := rt.groupCall(ctx, rt.all, &rt.allRR, "complete", "any", msgComplete,
		encodeCompleteReq(completeReq{prefix: prefix, k: min(k, maxWireResults)}), msgCompleteResp, rt.place.Load().fingerprint, func(body []byte) error {
			resp, err := decodeCompleteResp(body)
			if err != nil {
				return err
			}
			if len(resp) > k {
				return protocolErrf("%d completions for k = %d", len(resp), k)
			}
			kws = resp
			return nil
		})
	if err != nil {
		return nil
	}
	return kws
}

// Stats returns the analysis and the corpus-wide element count of one
// generation, read from one placement — what a remote corpus's summary
// reports, which must not pair one generation's classification with
// another's totals. A failed fetch reports 0 elements.
func (rt *Router) Stats() (analysis *core.Corpus, totalElements int) {
	pl := rt.place.Load()
	_, total, _ := rt.stats(context.Background(), pl, nil)
	return pl.analysis, total
}

// routerMetrics pre-registers the router's telemetry series, labeled by
// replica group so a sick group is attributable from metrics alone; see
// OBSERVABILITY.md for the contract. Numbered groups carry the per-group
// call kinds (eval, snippets, trees); the "any" pseudo-group carries the
// calls any replica may serve (full, the trees of results anchored at the
// root, stats, complete) — a whole-document answer's snippets ride with its
// full call.
type routerMetrics struct {
	calls     map[[3]string]*telemetry.Counter // kind, outcome, group
	failovers map[string]*telemetry.Counter    // group
	seconds   map[string]*telemetry.Histogram  // group

	// taken and dropped count shipped results by fate: taken into the answer
	// (as deferred results), or scanned and skipped because the merge cut (or
	// the root fallback) discarded them.
	taken, dropped *telemetry.Counter

	// snippets count a snippeted answer's snippets by where they came from —
	// carried by the eval round, by the full round, or fetched by handle — and
	// the records the rounds carried that the answer did not keep.
	viaEval, viaFull, viaHandle, discarded *telemetry.Counter
}

// groupCallKinds are the per-replica-group call kinds; anyCallKinds the
// kinds served by any replica.
var (
	groupCallKinds = []string{"eval", "snippets", "trees"}
	anyCallKinds   = []string{"full", "trees", "stats", "complete"}
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
	const snippetsHelp = "Snippets of routed answers by where they came from: the eval or full round, or a snippets call by handle; discarded counts records a round carried that the answer did not keep."
	m.viaEval = reg.Counter("extract_remote_snippets_total", snippetsHelp, telemetry.L("via", "eval"))
	m.viaFull = reg.Counter("extract_remote_snippets_total", snippetsHelp, telemetry.L("via", "full"))
	m.viaHandle = reg.Counter("extract_remote_snippets_total", snippetsHelp, telemetry.L("via", "handle"))
	m.discarded = reg.Counter("extract_remote_snippets_total", snippetsHelp, telemetry.L("via", "discarded"))
	return m
}

// snippetsServed counts one snippeted answer's snippets by origin, one add a
// label that moved.
func (m *routerMetrics) snippetsServed(eval, full, handle, discarded int) {
	for _, c := range []struct {
		c *telemetry.Counter
		n int
	}{{m.viaEval, eval}, {m.viaFull, full}, {m.viaHandle, handle}, {m.discarded, discarded}} {
		if c.n > 0 {
			c.c.Add(int64(c.n))
		}
	}
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
