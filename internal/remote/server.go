package remote

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"hash/fnv"
	"net"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"extract/internal/faultinject"
	"extract/internal/ingest"
	"extract/internal/search"
	"extract/internal/serve"
	"extract/internal/shard"
	"extract/internal/telemetry"
)

// ErrDropConnection, returned from a faultinject.RemoteServe hook, makes
// the server sever the connection without responding — the wire-visible
// shape of a replica crashing mid-query, which chaos tests use to prove
// the router's failover keeps answers flowing.
var ErrDropConnection = errors.New("remote: fault injection dropped connection")

// Fingerprint condenses a corpus generation's content identity — the root
// fingerprint plus every shard's content hash, in shard order — to one
// comparison word. Servers stamp it on every response and routers check it
// against the manifest they placed shards with, so a response computed
// against a different snapshot generation (a mid-reload window) is
// detected and classified instead of silently merged.
func Fingerprint(src ingest.Source) uint64 {
	h := fnv.New64a()
	var buf [8]byte
	put := func(v uint64) {
		for i := range buf {
			buf[i] = byte(v >> (8 * i))
		}
		h.Write(buf[:])
	}
	put(src.RootHash)
	for _, s := range src.Shards {
		put(s)
	}
	return h.Sum64()
}

// serverState is one immutable generation of the served corpus; Swap
// replaces it atomically, and every request works on the snapshot it
// loaded, so a reload never mixes generations within one response.
type serverState struct {
	sc          *shard.Corpus
	fingerprint uint64
	owned       []bool   // per shard index; nil = all
	ownedList   []uint32 // ascending, for Owned
}

// Server answers the wire protocol over one sharded corpus. It loads (or
// is handed) the full snapshot — mmap'd images make the non-owned shards
// nearly free — but evaluates queries, and rebuilds their results for trees
// and snippets, only for the shard subset it owns; whole-document, completion
// and statistics calls are answerable by any replica. A Server holds nothing
// of a query between its calls. A Server is safe for concurrent
// connections. The per-shard evaluations, snippet tasks and tree rebuilds of
// every request run on one worker pool of GOMAXPROCS workers (serve.Pool),
// with per-task panic isolation exactly like the in-process path, so a burst
// of connections cannot multiply the server's evaluation concurrency.
type Server struct {
	tag     string // identity handed to faultinject.RemoteServe hooks
	metrics *serverMetrics
	pool    *serve.Pool

	state atomic.Pointer[serverState]

	mu     sync.Mutex
	ln     net.Listener
	conns  map[net.Conn]struct{}
	closed bool
	wg     sync.WaitGroup
}

// ServerOption configures NewServer.
type ServerOption func(*Server, *serverState)

// WithOwnedShards restricts the server to evaluating the given shard
// indices (the replica group's placement subset). Requests for other
// shards are refused — a router whose placement disagrees fails over and
// surfaces a classified error rather than silently double-serving.
func WithOwnedShards(owned []uint32) ServerOption {
	return func(_ *Server, st *serverState) {
		st.owned = make([]bool, st.sc.NumShards())
		st.ownedList = nil
		for _, i := range owned {
			if int(i) < len(st.owned) && !st.owned[i] {
				st.owned[i] = true
				st.ownedList = append(st.ownedList, i)
			}
		}
	}
}

// WithServerTag sets the identity tag handed to fault-injection hooks
// (defaults to empty; extractd passes its listen address).
func WithServerTag(tag string) ServerOption {
	return func(s *Server, _ *serverState) { s.tag = tag }
}

// WithServerTelemetry registers the shard server's own metrics — request
// counts by kind/outcome and per-stage latency histograms — on reg, which
// extractd serves at the shard server's -metrics-addr. Without this
// option the server records nothing.
func WithServerTelemetry(reg *telemetry.Registry) ServerOption {
	return func(s *Server, _ *serverState) { s.metrics = newServerMetrics(reg) }
}

// NewServer builds a shard server over a sharded corpus. The corpus's
// content fingerprint is computed once here (one linear pass) and stamped
// on every response.
func NewServer(sc *shard.Corpus, opts ...ServerOption) *Server {
	s := &Server{conns: make(map[net.Conn]struct{}), pool: serve.NewPool(runtime.GOMAXPROCS(0))}
	st := newServerState(sc, ingest.SourceOf(sc))
	for _, o := range opts {
		o(s, st)
	}
	s.state.Store(st)
	// As with serve.Server: a dropped Server's workers stop on collection,
	// so a Server that is never Closed does not pin goroutines.
	runtime.AddCleanup(s, func(p *serve.Pool) { p.Stop() }, s.pool)
	return s
}

func newServerState(sc *shard.Corpus, src ingest.Source) *serverState {
	st := &serverState{sc: sc, fingerprint: Fingerprint(src)}
	for i := 0; i < sc.NumShards(); i++ {
		st.ownedList = append(st.ownedList, uint32(i))
	}
	return st
}

// Swap replaces the served corpus generation — the shard-server half of an
// online reload. The fingerprint is the generation's recorded Source (what
// ingest.LoadDelta returned), so a swap hashes no document. In-flight
// requests finish on the generation they started with; responses stamp the
// fingerprint of the generation that actually answered, so a router merging
// across the swap window detects the skew. The ownership subset is
// recomputed for the new shard count by the given options (none = own all).
func (s *Server) Swap(g *ingest.Generation, opts ...ServerOption) {
	st := newServerState(g.Corpus, g.Source)
	for _, o := range opts {
		o(s, st)
	}
	s.state.Store(st)
}

// Fingerprint returns the content fingerprint of the corpus generation
// currently served (the value stamped on every response);
// extractd's health endpoint and swap logging read it.
func (s *Server) Fingerprint() uint64 { return s.state.Load().fingerprint }

// Owned returns the shard indices this server currently evaluates,
// ascending. The slice is a copy.
func (s *Server) Owned() []uint32 {
	return append([]uint32(nil), s.state.Load().ownedList...)
}

// NumShards returns the served generation's total shard count.
func (s *Server) NumShards() int { return s.state.Load().sc.NumShards() }

// Serve accepts and serves connections on ln until Close. It always
// returns a non-nil error (net.ErrClosed after a clean Close).
func (s *Server) Serve(ln net.Listener) error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		ln.Close()
		return net.ErrClosed
	}
	s.ln = ln
	s.mu.Unlock()
	for {
		conn, err := ln.Accept()
		if err != nil {
			return err
		}
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			conn.Close()
			return net.ErrClosed
		}
		s.conns[conn] = struct{}{}
		s.wg.Add(1)
		s.mu.Unlock()
		go func() {
			defer s.wg.Done()
			s.serveConn(conn)
			s.mu.Lock()
			delete(s.conns, conn)
			s.mu.Unlock()
		}()
	}
}

// Close stops accepting, severs every open connection and waits for their
// handlers to return.
func (s *Server) Close() {
	s.mu.Lock()
	s.closed = true
	ln := s.ln
	for c := range s.conns {
		c.Close()
	}
	s.mu.Unlock()
	if ln != nil {
		ln.Close()
	}
	s.wg.Wait()
	s.pool.Stop()
}

// serveConn runs one connection: greet with an empty hello, then answer
// framed requests in order until the peer hangs up or a protocol violation
// poisons the stream.
func (s *Server) serveConn(conn net.Conn) {
	defer conn.Close()
	bw := bufio.NewWriter(conn)
	if reply(bw, msgHello, nil) != nil {
		return
	}
	br := bufio.NewReader(conn)
	// Responses are encoded into a buffer this connection owns and reuses:
	// the exchange is strictly request/response, so the previous response has
	// been flushed before the next is encoded.
	var enc []byte
	for {
		t, payload, err := readFrame(br)
		if err != nil {
			return
		}
		if faultinject.Enabled() {
			if err := faultinject.FireTag(faultinject.RemoteServe, s.tag); err != nil {
				if errors.Is(err, ErrDropConnection) {
					return
				}
				if reply(bw, msgError, encodeErrMsg(classifyServerErr(err))) != nil {
					return
				}
				continue
			}
		}
		rt, resp := s.handle(t, payload, enc[:0])
		if reply(bw, rt, resp) != nil {
			return
		}
		if resp != nil && cap(resp) <= maxKeptEncode {
			enc = resp
		}
	}
}

// maxKeptEncode bounds the encode buffer a connection keeps between
// requests, so one unbounded answer does not pin tens of megabytes per idle
// connection.
const maxKeptEncode = 4 << 20

// reply writes and flushes one response frame.
func reply(bw *bufio.Writer, t msgType, payload []byte) error {
	if err := writeFrame(bw, t, payload); err != nil {
		return err
	}
	return bw.Flush()
}

// handle dispatches one request and never panics: evaluation panics are
// recovered per task and classified, and a malformed request is answered
// with a protocol error message. Evaluation requests are timed per stage
// (decode, eval, encode) into the server's own telemetry (staged), and
// the same breakdown is written into the response header so the router can
// attribute a slow hop to the stage that caused it. Responses are appended
// to enc, the caller's scratch.
func (s *Server) handle(t msgType, payload, enc []byte) (msgType, []byte) {
	st := s.state.Load()
	switch t {
	case msgEval:
		return staged(s, st, "eval", msgEvalResp, payload, enc, decodeEvalReq, s.evaluate,
			func(b []byte, _ evalReq, a evalAnswer) []byte {
				defer a.records.Release()
				return appendEvalResp(b, a)
			})
	case msgFull:
		return staged(s, st, "full", msgFullResp, payload, enc, decodeEvalReq, s.fullEval,
			func(b []byte, _ evalReq, a fullAnswer) []byte {
				defer a.records.Release()
				return appendFullResp(b, a)
			})
	case msgTrees:
		return staged(s, st, "trees", msgTreesResp, payload, enc, decodeTreesReq, s.trees,
			func(b []byte, _ treesReq, rs []*search.Result) []byte { return appendTreesResp(b, rs) })
	case msgSnippets:
		return staged(s, st, "snippets", msgSnippetsResp, payload, enc, decodeTreesReq, s.snippets,
			func(b []byte, _ treesReq, recs *shard.RecordSet) []byte {
				defer recs.Release()
				return appendRecords(b, recs)
			})
	case msgComplete:
		req, err := decodeCompleteReq(payload)
		if err != nil {
			return s.fail("complete", serverStages{}, err)
		}
		kws := st.sc.CompletePrefix(req.prefix, req.k)
		return s.respond("complete", msgCompleteResp, appendCompleteResp(appendRespHeader(enc, st.fingerprint), kws), serverStages{})
	case msgStats:
		req, err := decodeStatsReq(payload)
		if err != nil {
			return s.fail("stats", serverStages{}, err)
		}
		r := statsResp{totalElements: uint64(st.sc.TotalElements())}
		for _, kw := range req.keywords {
			r.counts = append(r.counts, uint64(st.sc.Count(kw)))
		}
		return s.respond("stats", msgStatsResp, appendStatsResp(appendRespHeader(enc, st.fingerprint), r), serverStages{})
	default:
		return errFrame(protocolErrf("unexpected request type %d", t))
	}
}

// staged answers one request of kind in three timed stages — decode the
// payload, eval it on st, encode the answer behind the response header into
// enc — and fails it, classified, at the first stage that errs.
func staged[Req, Ans any](s *Server, st *serverState, kind string, t msgType, payload, enc []byte,
	decode func([]byte) (Req, error), eval func(*serverState, Req) (Ans, error), encode func([]byte, Req, Ans) []byte) (msgType, []byte) {
	start := time.Now()
	req, err := decode(payload)
	stages := serverStages{decodeNs: nanosSince(start)}
	if err != nil {
		return s.fail(kind, stages, err)
	}
	t1 := time.Now()
	a, err := eval(st, req)
	stages.evalNs = nanosSince(t1)
	if err != nil {
		return s.fail(kind, stages, err)
	}
	t2 := time.Now()
	resp := encode(appendRespHeader(enc, st.fingerprint), req, a)
	stages.encodeNs = nanosSince(t2)
	return s.respond(kind, t, resp, stages)
}

// respond counts one served request and writes its stages into the
// response header.
func (s *Server) respond(kind string, t msgType, resp []byte, stages serverStages) (msgType, []byte) {
	putServerStages(resp, stages)
	s.metrics.observe(kind, true, stages)
	return t, resp
}

// fail counts one failed request and encodes its classified error.
func (s *Server) fail(kind string, stages serverStages, err error) (msgType, []byte) {
	s.metrics.observe(kind, false, stages)
	return errFrame(err)
}

func errFrame(err error) (msgType, []byte) {
	return msgError, encodeErrMsg(classifyServerErr(err))
}

// classifyServerErr maps a server-side failure to its wire classification.
func classifyServerErr(err error) errMsg {
	var pe *shard.PanicError
	var se *shardRangeError
	switch {
	case errors.Is(err, errSkew):
		return errMsg{kind: errKindSkew, msg: err.Error()}
	case errors.As(err, &se):
		return errMsg{kind: errKindBadShard, msg: err.Error()}
	case errors.Is(err, search.ErrEmptyQuery):
		return errMsg{kind: errKindEmptyQuery, msg: err.Error()}
	case errors.Is(err, context.Canceled):
		return errMsg{kind: errKindCanceled, msg: err.Error()}
	case errors.Is(err, context.DeadlineExceeded):
		return errMsg{kind: errKindDeadline, msg: err.Error()}
	case errors.As(err, &pe):
		return errMsg{kind: errKindPanic, msg: fmt.Sprint(pe.Value)}
	default:
		return errMsg{kind: errKindInternal, msg: err.Error()}
	}
}

// reqContext applies the request's deadline, if any.
func reqContext(timeoutMillis uint64) (context.Context, context.CancelFunc) {
	if timeoutMillis == 0 {
		return context.Background(), func() {}
	}
	return context.WithTimeout(context.Background(), time.Duration(timeoutMillis)*time.Millisecond)
}

// evaluate answers one eval request — round one of shard.Merge for the
// shards the request names: their shard.Partials, digested from the
// untrimmed local hit lists, then trimmed to what the router's merge can
// still take, and only then built (shard.Round.Build): a hit the trim drops
// is never a result. With a snippet bound, it snippets the shipped results
// of the request's leading run (shard.LeadingRun), which the merge keeps
// unless the query takes round two, on the results it holds: one fan-out
// (shard.Records), nothing rebuilt — and none when one of its shards is
// root-anchored, which makes round two certain. The router asks for the
// other winners' snippets by handle (snippets).
func (s *Server) evaluate(st *serverState, req evalReq) (evalAnswer, error) {
	ctx, cancel := reqContext(req.timeoutMillis)
	defer cancel()
	shards, err := ownedShards(st, req.shards)
	if err != nil {
		return evalAnswer{}, err
	}
	q := search.Parse(req.query)
	parts, round, err := st.sc.EvalShards(ctx, q, req.opts, shards, s.pool.Run)
	if err != nil {
		return evalAnswer{}, err
	}
	trimmed := trimToMerge(parts, req.shards, req.opts.MaxResults)
	a := evalAnswer{terms: q.Keys, shards: make([]shardAnswer, len(parts))}
	if err := shard.Recover(func() {
		total := 0
		for _, p := range parts {
			total += len(p.Results)
		}
		rs := make([]*search.Result, 0, total)
		for i, p := range parts {
			start := len(rs)
			rs = round.Build(rs, p.Results)
			a.shards[i] = shardAnswer{shard: req.shards[i], digest: p.Digest, results: rs[start:]}
		}
	}); err != nil {
		return evalAnswer{}, err
	}
	if !trimmed || req.bound < 0 ||
		slices.ContainsFunc(a.shards, func(sa shardAnswer) bool { return sa.digest.RootAnchored }) {
		return a, nil
	}
	lead := a.shards[:shard.LeadingRun(req.shards)]
	var rs []*search.Result
	for _, sa := range lead {
		rs = append(rs, sa.results...)
	}
	if a.records, err = s.records(ctx, st, rs, q.Keywords, req.bound); err != nil {
		return evalAnswer{}, err
	}
	at := 0
	for i := range lead {
		n := len(lead[i].results)
		lead[i].records = a.records.Slice(at, at+n)
		at += n
	}
	return a, nil
}

// records writes the snippet records of rs at bound with the query's
// keywords kws (shard.Records) and counts them. The encoder copies them into
// the response, and the handler then releases them (handle).
func (s *Server) records(ctx context.Context, st *serverState, rs []*search.Result, kws []string, bound int) (*shard.RecordSet, error) {
	if len(rs) == 0 {
		return nil, nil
	}
	recs, err := shard.Records(ctx, s.pool.Run, st.sc.Generator(), rs, kws, bound)
	if err != nil {
		return nil, err
	}
	s.metrics.snippetsMade(recs.Len())
	return recs, nil
}

// trimToMerge drops the hits the router's merge cannot take, from parts,
// round one on the request's shards (in the order it names them), and
// reports whether it did. The digests and the root-anchored bit were
// computed from the untrimmed lists and stay as they are; the trim applies
// the merge's own cut (shard.MergeTake, each shard keeping its hits with the
// earliest LCAs, shard.AppendEarliest) to this request's shards in ascending
// order, so whatever the other groups return, a dropped hit lies past
// position MaxResults in the whole engine's order and the merged answer is
// unchanged. It is sound only in that order, which is the one a router's
// placement produces; a request naming its shards any other way is answered
// untrimmed, and unsnippeted.
func trimToMerge(parts []shard.Partial[search.Hit], shards []uint32, maxResults int) bool {
	counts := make([]int, len(parts))
	for i := range parts {
		if i > 0 && shards[i] <= shards[i-1] {
			return false
		}
		counts[i] = len(parts[i].Results)
	}
	shard.MergeTake(counts, maxResults)
	for i := range parts {
		hs := parts[i].Results
		parts[i].Results = shard.AppendEarliest(hs[:0], hs, counts[i], shard.HitLCA)
	}
	return true
}

// fullEval answers shard.Merge's second round: the whole-document answer,
// as counts and handles, like evaluate, and with a snippet bound the
// snippet records of every result — the full answer is the answer. Any
// replica can serve it — every server holds the full snapshot — and composes
// it as a local corpus does, from round one on all its shards
// (shard.Corpus.Answer), evaluating and copying no whole document. Every
// result but the root-anchored one is a shard's own, and is shipped under
// that shard, as evaluate ships it (handleOf).
func (s *Server) fullEval(st *serverState, req evalReq) (fullAnswer, error) {
	ctx, cancel := reqContext(req.timeoutMillis)
	defer cancel()
	q := search.Parse(req.query)
	rs, _, err := st.sc.Answer(ctx, q, req.opts, s.pool.Run, -1)
	if err != nil {
		return fullAnswer{}, err
	}
	a := fullAnswer{terms: q.Keys, results: rs, handles: make([]handle, len(rs))}
	for i, r := range rs {
		if a.handles[i], err = handleOf(st.sc, r); err != nil {
			return fullAnswer{}, err
		}
	}
	if req.bound >= 0 {
		if a.records, err = s.records(ctx, st, rs, q.Keywords, req.bound); err != nil {
			return fullAnswer{}, err
		}
	}
	return a, nil
}

// handleOf returns the handle of a round-two result: the shard holding its
// LCA, with its anchor's and LCA's positions there — or, for the result
// anchored at the document root, a whole handle with the LCA's global
// position (index.Whole.Global).
func handleOf(sc *shard.Corpus, r *search.Result) (handle, error) {
	if w, lca := r.Whole(); w != nil {
		return handle{shard: wholeShard, lca: lca}, nil
	}
	for i, s := range sc.Shards() {
		if s.Doc.ByOrd(r.LCA.Ord) != r.LCA {
			continue
		}
		if r.Anchor == sc.Shards()[0].Doc.Root {
			return handle{shard: wholeShard, lca: sc.Whole().Global(i, int32(r.LCA.Ord))}, nil
		}
		return handle{shard: int32(i), anchor: int32(r.Anchor.Ord), lca: int32(r.LCA.Ord)}, nil
	}
	return handle{}, errors.New("remote: a round-two result's LCA lies in no shard")
}

// trees answers a trees request: the handles' results, rebuilt.
func (s *Server) trees(st *serverState, req treesReq) ([]*search.Result, error) {
	ctx, cancel := reqContext(req.timeoutMillis)
	defer cancel()
	return s.rebuild(ctx, st, req, search.Parse(req.query))
}

// snippets answers a snippets request — the router's round for the results
// its merge kept that no eval or full response carried the snippets of: the
// handles' results, rebuilt as a trees request rebuilds them (on the answer's
// generation, on owned shards only, or on the whole document); then the local
// fan-out writes their snippet records at the request's bound (records) — one
// a handle, in request order, sent as they were written.
func (s *Server) snippets(st *serverState, req treesReq) (*shard.RecordSet, error) {
	if req.bound < 0 {
		return nil, protocolErrf("snippets request without a snippet bound")
	}
	ctx, cancel := reqContext(req.timeoutMillis)
	defer cancel()
	q := search.Parse(req.query)
	rs, err := s.rebuild(ctx, st, req, q)
	if err != nil {
		return nil, err
	}
	return s.records(ctx, st, rs, q.Keywords, req.bound)
}

// rebuild resolves a trees or snippets request's handles, its query parsed as
// q: every handle's result, rebuilt on the generation that answered the query
// (search.Engine.ResultAt) — the fingerprint must be this server's, or the
// request is refused as skew, and a shard handle must name a shard this
// replica owns. The handles of each shard are one task on the worker pool,
// like a shard's evaluation: its engine resolves the query's posting lists
// once for all of them, and ctx is checked before each result. The whole
// handles — root-anchored results — are one task too, rebuilt from their
// LCAs' global positions on the shards (shard.Corpus.ResultsAt), which
// any replica holds.
func (s *Server) rebuild(ctx context.Context, st *serverState, req treesReq, q search.Query) ([]*search.Result, error) {
	if req.fingerprint != st.fingerprint {
		return nil, fmt.Errorf("%w: results of generation %016x asked of generation %016x", errSkew, req.fingerprint, st.fingerprint)
	}
	bySource := make(map[int32][]int)
	var order []int32
	for i, h := range req.handles {
		if _, ok := bySource[h.shard]; !ok {
			if h.shard != wholeShard {
				if err := requireOwned(st, int(h.shard)); err != nil {
					return nil, err
				}
			}
			order = append(order, h.shard)
		}
		bySource[h.shard] = append(bySource[h.shard], i)
	}
	rs := make([]*search.Result, len(req.handles))
	errs := make([]error, len(order))
	tasks := make([]func(), len(order))
	for k, sh := range order {
		tasks[k] = func() {
			if sh == wholeShard {
				errs[k] = rebuildWhole(ctx, st, req, q, bySource[sh], rs)
				return
			}
			eng := st.sc.Shards()[sh].Engine(req.opts)
			ev, err := eng.Lists(q)
			for _, i := range bySource[sh] {
				if err == nil {
					err = ctx.Err()
				}
				if err != nil {
					errs[k] = err
					return
				}
				h := req.handles[i]
				rs[i], err = eng.ResultAt(ev, int(h.anchor), int(h.lca))
			}
			errs[k] = err
		}
	}
	if err := s.pool.Run(tasks); err != nil {
		return nil, err
	}
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return rs, nil
}

// rebuildWhole rebuilds the whole handles at positions idx of req, whose
// query is q, into rs: each names a result anchored at the root.
func rebuildWhole(ctx context.Context, st *serverState, req treesReq, q search.Query, idx []int, rs []*search.Result) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	lcas := make([]int32, len(idx))
	for k, i := range idx {
		if h := req.handles[i]; h.anchor != 0 {
			return fmt.Errorf("remote: whole handle anchored at %d, not at the root", h.anchor)
		}
		lcas[k] = req.handles[i].lca
	}
	built, err := st.sc.ResultsAt(q, req.opts, lcas)
	if err != nil {
		return err
	}
	for k, i := range idx {
		rs[i] = built[k]
	}
	return nil
}

// ownedShards validates a request's whole shard set, returning it as corpus
// indices, before anything is dispatched — a refused request must not leave
// evaluations running, or already run, behind its error reply.
func ownedShards(st *serverState, requested []uint32) ([]int, error) {
	shards := make([]int, len(requested))
	for i, idx := range requested {
		if err := requireOwned(st, int(idx)); err != nil {
			return nil, err
		}
		shards[i] = int(idx)
	}
	return shards, nil
}

func requireOwned(st *serverState, idx int) error {
	if idx < 0 || idx >= st.sc.NumShards() {
		return &shardRangeError{idx: idx, n: st.sc.NumShards()}
	}
	if st.owned != nil && !st.owned[idx] {
		return &shardRangeError{idx: idx, n: st.sc.NumShards(), unowned: true}
	}
	return nil
}

// shardRangeError refuses a request for a shard this replica does not
// serve; it classifies as errKindBadShard on the wire.
type shardRangeError struct {
	idx     int
	n       int
	unowned bool
}

func (e *shardRangeError) Error() string {
	if e.unowned {
		return fmt.Sprintf("remote: shard %d not owned by this replica", e.idx)
	}
	return fmt.Sprintf("remote: shard %d out of range (corpus has %d)", e.idx, e.n)
}
