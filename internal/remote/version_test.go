package remote

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"maps"
	"net"
	"slices"
	"strconv"
	"strings"
	"testing"

	"extract/internal/gen"
	"extract/internal/ingest"
	"extract/internal/search"
	"extract/internal/shard"
	"extract/internal/telemetry"
	"extract/xmltree"
)

// tracedSearch runs one query with a span sink installed and returns the
// collected hops.
func tracedSearch(t *testing.T, rt *Router, query string) []telemetry.HopSpan {
	t.Helper()
	sink := &telemetry.SpanSink{TraceID: telemetry.NextTraceID()}
	ctx := telemetry.WithSpanSink(context.Background(), sink)
	if _, err := rt.SearchEnginesContext(ctx, query, search.Options{DistinctAnchors: true}, nil, nil); err != nil {
		t.Fatalf("SearchEnginesContext: %v", err)
	}
	hops := sink.Hops()
	if len(hops) == 0 {
		t.Fatal("query produced no hop spans")
	}
	return hops
}

func versionTestCorpus() *shard.Corpus { return shard.Build(versionTestDoc(), 3) }

// versionTestDoc is the document versionTestCorpus shards, a new copy a call.
func versionTestDoc() *xmltree.Document {
	return gen.Stores(gen.StoresConfig{Retailers: 4, StoresPerRetailer: 3, ClothesPerStore: 5, Seed: 11})
}

// TestRoutedHopsReportServerStages: server stage timings in every response
// header are an unconditional part of the one wire layout, so every hop of a
// routed query carries them.
func TestRoutedHopsReportServerStages(t *testing.T) {
	cl := startCluster(t, versionTestCorpus(), 1, 1)
	hops := tracedSearch(t, cl.router, "store texas")
	for _, h := range hops {
		if h.Err != "" {
			t.Fatalf("unexpected hop error %q: %+v", h.Err, h)
		}
		if h.Replica == "" || h.Group == "" || h.Kind == "" {
			t.Fatalf("hop missing identity: %+v", h)
		}
		if h.ServerDecode <= 0 || h.ServerEncode <= 0 {
			t.Fatalf("hop missing server-side stage timings: %+v", h)
		}
	}
}

// retiredGreeting is a v4 greeting's payload — the served generation's
// fingerprint (u64 7), then uvarint shard count 3 and the owned shard list
// {0, 1, 2} — which the retired-version cases send at every old version. A
// v5 to v10 greeting is an empty frame.
var retiredGreeting = []byte{7, 0, 0, 0, 0, 0, 0, 0, 3, 3, 0, 1, 2}

// v4Ping is the retired v4 health probe's message type: v5 dropped ping and
// pong, and the type number now belongs to the error message.
const v4Ping = msgType(8)

// v8EvalReq is a retired v8 eval or full request: a search-only v10 one
// without its snippet bound + 1, the last byte.
func v8EvalReq(cur []byte) []byte {
	return slices.Clip(cur[:len(cur)-1])
}

// v2EvalReq is a retired v2 eval request: a v8 one (of a search-only v9
// one) followed by the trace ID (u64 LE), which nothing read.
func v2EvalReq(cur []byte) []byte {
	return binary.LittleEndian.AppendUint64(v8EvalReq(cur), 1)
}

// v7EvalReq is a retired v3 to v7 eval or full request: a search-only v10 one
// — a v8 one followed by the snippet bound + 1, 0 — and then the trace ID.
func v7EvalReq(cur []byte) []byte {
	return binary.LittleEndian.AppendUint64(slices.Clip(cur), 1)
}

// v8EvalResp is a retired v8 eval response body: one shard (index 0, no
// digest bits) shipping one result — one node, anchor and LCA at 0, no
// depths — and no record list after it.
var v8EvalResp = []byte{1, 0, 0, 0, 1, 1, 0, 0}

// v9SnippetsResp is a retired v9 snippets response body: one snippet record
// with no head — a childless "a" node, no edges, an empty IList, no key,
// nothing covered or skipped.
var v9SnippetsResp = []byte{1, 1, 0, 1, 'a', 0, 0, 0, 0, 0, 0, 0, 0}

// v9SnippetedFullResp is a retired v9 full response body: one result under
// no shard of its own — one node, anchor and LCA at 0 in the whole document,
// no depths — and its record, v9SnippetsResp's.
var v9SnippetedFullResp = append([]byte{1, 1, 0, 0}, v9SnippetsResp...)

// TestOtherWireVersionsRefused: a frame at any version but wireVersion —
// the retired v1 to v9 a stale peer would still speak, or a future one — is
// a *ProtocolError naming both versions, whichever side reads it: the router
// reading a greeting or a response, the server reading a request. The server
// hangs up on it without evaluating anything.
func TestOtherWireVersionsRefused(t *testing.T) {
	greeting := retiredGreeting
	request := encodeEvalReq(evalReq{opts: search.Options{DistinctAnchors: true}, query: "store", shards: []uint32{0}, bound: -1})
	fullRequest := encodeEvalReq(evalReq{query: "store", bound: -1})
	for _, tc := range []struct {
		name    string
		ver     byte
		t       msgType
		payload []byte
	}{
		{"v1 greeting", 1, msgHello, greeting},
		{"v1 eval request", 1, msgEval, request},
		{"v1 negotiation request", 1, msgHello, []byte{2}},
		{"v2 greeting", 2, msgHello, greeting},
		{"v2 eval request", 2, msgEval, v2EvalReq(request)},
		{"v3 greeting", 3, msgHello, greeting},
		{"v3 eval request", 3, msgEval, v7EvalReq(request)},
		{"v3 digest request", 3, msgType(4), v7EvalReq(request)},
		{"v4 greeting", 4, msgHello, greeting},
		{"v4 eval request", 4, msgEval, v7EvalReq(request)},
		{"v4 ping", 4, v4Ping, nil},
		{"v5 greeting", 5, msgHello, nil},
		{"v5 eval request", 5, msgEval, v7EvalReq(request)},
		{"v5 eval response", 5, msgEvalResp, append(appendRespHeader(nil, 7), v5EvalResp...)},
		{"v6 greeting", 6, msgHello, nil},
		{"v6 eval request", 6, msgEval, v7EvalReq(request)},
		{"v6 snippeted eval response", 6, msgEvalResp, append(appendRespHeader(nil, 7), v6SnippetedEvalResp...)},
		{"v7 greeting", 7, msgHello, nil},
		{"v7 eval request", 7, msgEval, v7EvalReq(request)},
		{"v7 full request", 7, msgFull, v7EvalReq(fullRequest)},
		{"v7 snippeted full response", 7, msgFullResp, append(appendRespHeader(nil, 7), v7SnippetedFullResp...)},
		{"v8 greeting", 8, msgHello, nil},
		{"v8 eval request", 8, msgEval, v8EvalReq(request)},
		{"v8 full request", 8, msgFull, v8EvalReq(fullRequest)},
		{"v8 eval response", 8, msgEvalResp, append(appendRespHeader(nil, 7), v8EvalResp...)},
		{"v9 greeting", 9, msgHello, nil},
		{"v9 snippeted full response", 9, msgFullResp, append(appendRespHeader(nil, 7), v9SnippetedFullResp...)},
		{"v9 snippets response", 9, msgSnippetsResp, append(appendRespHeader(nil, 7), v9SnippetsResp...)},
		{"v11 greeting", wireVersion + 1, msgHello, nil},
	} {
		_, _, err := readFrame(bytes.NewReader(frameBytes(tc.ver, tc.t, tc.payload)))
		var pe *ProtocolError
		if !errors.As(err, &pe) {
			t.Fatalf("%s: err = %v, want a *ProtocolError", tc.name, err)
		}
		for _, want := range []string{"version skew", fmt.Sprintf("v%d", tc.ver), fmt.Sprintf("v%d", wireVersion)} {
			if !strings.Contains(pe.Reason, want) {
				t.Errorf("%s: %q does not mention %q", tc.name, pe.Reason, want)
			}
		}
	}

	// Nor do the retired bodies decode as v10 ones: a v6 eval response, which
	// carried a snippet per result, a v7 full response, which carried them
	// too, a v8 eval response, which carried no record list, a v9 full
	// response, whose results carried no shard, and a v9 snippets response,
	// whose record had no head, a v7 eval or full request, which carried a
	// snippet bound and a trace ID, and a v8 one, which carried no bound.
	var pe *ProtocolError
	for _, lead := range []int{-1, 1} {
		if _, err := decodeEvalResp(v6SnippetedEvalResp, 0, lead); !errors.As(err, &pe) {
			t.Fatalf("a v6 snippeted eval response body: %v, want a *ProtocolError", err)
		}
		if _, err := decodeEvalResp(v8EvalResp, 0, lead); !errors.As(err, &pe) {
			t.Fatalf("a v8 eval response body: %v, want a *ProtocolError", err)
		}
	}
	for _, snippeted := range []bool{false, true} {
		if _, err := decodeFullResp(v7SnippetedFullResp, 0, 1, snippeted); !errors.As(err, &pe) {
			t.Fatalf("a v7 snippeted full response body: %v, want a *ProtocolError", err)
		}
		if _, err := decodeFullResp(v9SnippetedFullResp, 0, 1, snippeted); !errors.As(err, &pe) {
			t.Fatalf("a v9 snippeted full response body: %v, want a *ProtocolError", err)
		}
	}
	if _, err := decodeSnippetsResp(v9SnippetsResp); !errors.As(err, &pe) {
		t.Fatalf("a v9 snippets response body: %v, want a *ProtocolError", err)
	}
	for _, req := range [][]byte{v7EvalReq(request), v7EvalReq(fullRequest), v8EvalReq(request), v8EvalReq(fullRequest)} {
		if _, err := decodeEvalReq(req); !errors.As(err, &pe) {
			t.Fatalf("a v7 request %v: %v, want a *ProtocolError", req, err)
		}
	}

	// A stale router's first frame ends the connection: the server reads it,
	// refuses it and hangs up, having greeted at its own version.
	reg := telemetry.NewRegistry()
	srv := NewServer(versionTestCorpus(), WithServerTelemetry(reg))
	client, server := net.Pipe()
	done := make(chan struct{})
	go func() { srv.serveConn(server); close(done) }()
	defer client.Close()
	if mt, _, err := readFrame(client); err != nil || mt != msgHello {
		t.Fatalf("greeting: type %d, %v", mt, err)
	}
	if _, err := client.Write(frameBytes(7, msgEval, v7EvalReq(request))); err != nil {
		t.Fatal(err)
	}
	if _, _, err := readFrame(client); !errors.Is(err, io.EOF) {
		t.Fatalf("after a v7 request: %v, want the connection closed", err)
	}
	<-done
	for _, m := range reg.Snapshot().Metrics {
		if m.Name == "extract_shard_server_requests_total" && m.Value != 0 {
			t.Fatalf("refused frame was counted as a request: %s = %v", m.Key(), m.Value)
		}
	}

	// The retired negotiation request, at the current version, is just an
	// unexpected request type.
	if mt, body := srv.handle(msgHello, []byte{2}, nil); mt != msgError {
		t.Fatalf("hello request answered with type %d", mt)
	} else if em, err := decodeErrMsg(body); err != nil || !strings.Contains(em.msg, "unexpected request type") {
		t.Fatalf("hello request: %+v, %v", em, err)
	}
}

// TestGreetingWithPayloadRefused: a greeting is an empty frame. A peer
// that greets at this version but carries a payload — the v4 greeting's fields — is
// refused on dial with a *ProtocolError, and the router fails the call over
// to the group's other replica, answering as the local corpus does.
func TestGreetingWithPayloadRefused(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go func() {
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			c.Write(frameBytes(wireVersion, msgHello, retiredGreeting))
			defer c.Close()
		}
	}()
	bad := ln.Addr().String()

	r := &replica{addr: bad, dial: netDial}
	_, err = r.get(context.Background())
	var pe *ProtocolError
	if !errors.As(err, &pe) || !strings.Contains(pe.Reason, "payload") {
		t.Fatalf("dialing a greeting with a payload: %v, want a *ProtocolError", err)
	}

	sc := versionTestCorpus()
	src := ingest.SourceOf(sc)
	good, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := NewServer(sc)
	go srv.Serve(good)
	defer srv.Close()
	rt, err := NewRouter(sc.Analysis(), src, [][]string{{bad, good.Addr().String()}})
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()
	opts := search.Options{DistinctAnchors: true}
	sink := &telemetry.SpanSink{TraceID: telemetry.NextTraceID()}
	got, err := rt.SearchEnginesContext(telemetry.WithSpanSink(context.Background(), sink), "store texas", opts, nil, nil)
	if err != nil {
		t.Fatalf("routed query: %v", err)
	}
	want, err := sc.Search("store texas", opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) || len(got) == 0 {
		t.Fatalf("%d routed results, %d local", len(got), len(want))
	}
	for i := range got {
		tree, err := got[i].Tree(context.Background())
		if err != nil {
			t.Fatalf("tree %d: %v", i, err)
		}
		if g, w := xmltree.XMLString(tree.Root), xmltree.XMLString(want[i].Root); g != w {
			t.Fatalf("result %d differs after failover:\n%s\nlocal\n%s", i, g, w)
		}
	}
	refused := false
	for _, h := range sink.Hops() {
		if h.Replica == bad {
			if h.Err != ErrKindProtocol {
				t.Fatalf("hop to the payload-greeting peer: %+v, want a protocol error", h)
			}
			refused = true
		}
	}
	if !refused {
		t.Fatalf("no hop tried the payload-greeting peer: %+v", sink.Hops())
	}
}

// TestServerTelemetryCountsRequests pins the shard-server registry: served
// requests land in extract_shard_server_requests_total and stage
// histograms observe the stages that ran.
func TestServerTelemetryCountsRequests(t *testing.T) {
	reg := telemetry.NewRegistry()
	sc := versionTestCorpus()
	src := ingest.SourceOf(sc)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	srv := NewServer(sc, WithOwnedShards(OwnedShards(src, 0, 1)), WithServerTelemetry(reg))
	go srv.Serve(ln)
	defer srv.Close()
	rt, err := NewRouter(sc.Analysis(), src, [][]string{{ln.Addr().String()}})
	if err != nil {
		t.Fatalf("NewRouter: %v", err)
	}
	defer rt.Close()
	if _, err := rt.SearchEnginesContext(context.Background(), "store texas", search.Options{DistinctAnchors: true}, nil, nil); err != nil {
		t.Fatalf("SearchEnginesContext: %v", err)
	}
	snap := reg.Snapshot()
	evals, stageCounts := float64(0), uint64(0)
	for _, m := range snap.Metrics {
		if m.Key() == "extract_shard_server_requests_total{kind=eval}{outcome=ok}" {
			evals = m.Value
		}
		if m.Name == "extract_shard_server_stage_seconds" && m.Histogram != nil {
			stageCounts += m.Histogram.Count
		}
	}
	if evals < 1 {
		t.Fatalf("the query's eval request was not counted: %v", evals)
	}
	if stageCounts == 0 {
		t.Fatal("no stage observations recorded")
	}
}

// startCountedCluster is startCluster with one replica a group whose server
// counts into a registry of its own: regs[g] is group g's.
func startCountedCluster(t *testing.T, sc *shard.Corpus, groups int) (*Router, []*telemetry.Registry) {
	t.Helper()
	src := ingest.SourceOf(sc)
	var addrs [][]string
	var regs []*telemetry.Registry
	for g := 0; g < groups; g++ {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatalf("listen: %v", err)
		}
		reg := telemetry.NewRegistry()
		srv := NewServer(sc, WithOwnedShards(OwnedShards(src, g, groups)), WithServerTelemetry(reg))
		go srv.Serve(ln)
		t.Cleanup(srv.Close)
		addrs = append(addrs, []string{ln.Addr().String()})
		regs = append(regs, reg)
	}
	rt, err := NewRouter(sc.Analysis(), src, addrs)
	if err != nil {
		t.Fatalf("NewRouter: %v", err)
	}
	t.Cleanup(rt.Close)
	return rt, regs
}

// snippetsMade reads a shard server's snippet counter.
func snippetsMade(reg *telemetry.Registry) int64 {
	for _, m := range reg.Snapshot().Metrics {
		if m.Name == "extract_shard_server_snippets_total" {
			return int64(m.Value)
		}
	}
	return -1
}

// keptByGroup returns, for a query the per-shard round decides, how many of
// its results each replica group of rt holds (kept) and had before the
// merge's cut (had), and how many of the kept lie outside the group's leading
// run of shards (fetched: the ones a snippeted answer asks the group for by
// handle): the local per-shard evaluation, cut as the merge cuts it
// (shard.MergeTake), summed by group.
func keptByGroup(t *testing.T, rt *Router, sc *shard.Corpus, q string, opts search.Options) (kept, had, fetched []int) {
	t.Helper()
	all := make([]int, sc.NumShards())
	for i := range all {
		all[i] = i
	}
	parts, _, err := sc.EvalShards(context.Background(), search.Parse(q), opts, all, nil)
	if err != nil {
		t.Fatalf("%q: %v", q, err)
	}
	pl := rt.place.Load()
	groupOf := pl.groupOf
	kept, had, fetched = make([]int, len(rt.groups)), make([]int, len(rt.groups)), make([]int, len(rt.groups))
	counts := make([]int, len(parts))
	for i, p := range parts {
		counts[i] = len(p.Results)
		had[groupOf[i]] += counts[i]
	}
	shard.MergeTake(counts, opts.MaxResults)
	for i, n := range counts {
		g := groupOf[i]
		kept[g] += n
		if i >= shard.LeadingRun(pl.byGroup[g]) {
			fetched[g] += n
		}
	}
	return kept, had, fetched
}

// snippetOrigins reads a router's snippet counter, label by label.
func snippetOrigins(rt *Router) map[string]int64 {
	m := rt.metrics
	return map[string]int64{"eval": m.viaEval.Value(), "full": m.viaFull.Value(), "handle": m.viaHandle.Value(), "discarded": m.discarded.Value()}
}

// TestServersSnippetOnlyKeptResults: a routed query with snippets makes the
// eval and full calls a search-only one makes, and the servers snippet what
// the rule says they must (shard.LeadingRun): in the eval round, every result
// a group ships for its leading run of shards, which the merge keeps unless
// the query takes round two; in the full round, every result of the
// whole-document answer. Then the router makes exactly one snippets call to
// each group holding a kept result outside its leading run, none to any
// other — none at all for a whole-document answer — and the servers make
// exactly one snippet per result of the answer, plus the records the answer
// discarded (the eval round's, when round two answered), as the router's
// snippet counter tells. A search-only query snippets nothing. Reading the
// answer's trees afterwards makes no eval, full, stats or snippets call (it
// fetches the trees by handle; TestTreeReadTakesOneRoundPerGroup counts
// those calls).
func TestServersSnippetOnlyKeptResults(t *testing.T) {
	sc := versionTestCorpus()
	const groups = 2
	rt, regs := startCountedCluster(t, sc, groups)
	calls := func() map[string]int64 {
		n := map[string]int64{}
		for key, c := range rt.metrics.calls {
			n[key[0]] += c.Value()
		}
		return n
	}
	made := func() []int64 {
		n := make([]int64, groups)
		for g, reg := range regs {
			n[g] = snippetsMade(reg)
		}
		return n
	}
	sum := func(before, after []int64) int64 {
		total := int64(0)
		for g := range after {
			total += after[g] - before[g]
		}
		return total
	}
	doc := versionTestDoc()
	queries := append(testQueries(doc), doc.Root.Label)
	ctx := context.Background()
	answered, whole, cut, oneRound, fetching := 0, 0, 0, 0, 0
	for _, opts := range []search.Options{{DistinctAnchors: true}, {DistinctAnchors: true, Semantics: search.SemanticsELCA, MaxResults: 3}} {
		for _, q := range queries {
			before, madeBefore := calls(), made()
			if _, _, err := rt.Answer(ctx, search.Parse(q), opts, nil, -1); err != nil {
				continue
			}
			searchOnly, madeSearchOnly, snippetCalls, origins := calls(), made(), callsOf(rt, "snippets"), snippetOrigins(rt)
			if searchOnly["snippets"] != before["snippets"] {
				t.Fatalf("%q: a search-only answer made %v snippets calls", q, searchOnly["snippets"]-before["snippets"])
			}
			if n := sum(madeBefore, madeSearchOnly); n != 0 {
				t.Fatalf("%q: the servers made %d snippets for a search-only answer", q, n)
			}
			rs, gs, err := rt.Answer(ctx, search.Parse(q), opts, nil, 8)
			if err != nil || len(gs) != len(rs) {
				t.Fatalf("%q: %d snippets for %d results, %v", q, len(gs), len(rs), err)
			}
			snippeted, madeAfter, snippetCallsAfter, originsAfter := calls(), made(), callsOf(rt, "snippets"), snippetOrigins(rt)
			for _, kind := range []string{"eval", "full", "stats"} {
				if a, b := searchOnly[kind]-before[kind], snippeted[kind]-searchOnly[kind]; a != b {
					t.Fatalf("%q: %v %s calls with snippets, %v without", q, b, kind, a)
				}
			}
			if n := snippeted["eval"] - searchOnly["eval"]; n != groups {
				t.Fatalf("%q: %v eval calls for %d groups", q, n, groups)
			}
			via := map[string]int64{}
			for label, n := range originsAfter {
				via[label] = n - origins[label]
			}
			if served := via["eval"] + via["full"] + via["handle"]; served != int64(len(rs)) {
				t.Fatalf("%q: %v snippets served by origin for a %d-result answer", q, via, len(rs))
			}
			if total := sum(madeSearchOnly, madeAfter); total != int64(len(rs))+via["discarded"] {
				t.Fatalf("%q (%v): the servers made %d snippets for a %d-result answer that discarded %d", q, opts.Semantics, total, len(rs), via["discarded"])
			}
			if snippeted["full"] > searchOnly["full"] {
				if n := snippetCallsAfter; !maps.Equal(n, snippetCalls) {
					t.Fatalf("%q: a whole-document answer made snippets calls (%v, before %v)", q, n, snippetCalls)
				}
				if via["full"] != int64(len(rs)) {
					t.Fatalf("%q: a whole-document answer served %v", q, via)
				}
				whole++
			} else {
				kept, had, fetched := keptByGroup(t, rt, sc, q, opts)
				if via["discarded"] != 0 || via["full"] != 0 {
					t.Fatalf("%q: an answer of round one served %v", q, via)
				}
				asked := 0
				for g := range regs {
					label := strconv.Itoa(g)
					want := int64(0)
					if fetched[g] > 0 {
						want, asked = 1, asked+1
					}
					if kept[g] == 0 && had[g] > 0 {
						cut++
					}
					if n := snippetCallsAfter[label] - snippetCalls[label]; n != want {
						t.Fatalf("%q (%v): %d snippets calls to group %d, which holds %d kept of %d results, %d outside its leading run",
							q, opts.Semantics, n, g, kept[g], had[g], fetched[g])
					}
					if n := madeAfter[g] - madeSearchOnly[g]; n != int64(kept[g]) {
						t.Fatalf("%q (%v): group %d made %d snippets for %d kept results", q, opts.Semantics, g, n, kept[g])
					}
				}
				if len(rs) > 0 && asked == 0 {
					oneRound++
				}
				if asked > 0 {
					fetching++
				}
			}
			for _, r := range rs {
				if _, err := r.Tree(context.Background()); err != nil {
					t.Fatalf("%q: tree: %v", q, err)
				}
			}
			read := calls()
			for _, kind := range []string{"eval", "full", "stats", "snippets"} {
				if read[kind] != snippeted[kind] {
					t.Fatalf("%q: reading the trees made %v %s calls", q, read[kind]-snippeted[kind], kind)
				}
			}
			answered++
		}
	}
	if answered == 0 || whole == 0 || cut == 0 || oneRound == 0 || fetching == 0 {
		t.Fatalf("%d queries answered, %d by the whole-document round, %d groups cut out, %d answers in one round, %d with a snippets round: the matrix proves nothing",
			answered, whole, cut, oneRound, fetching)
	}
}

// TestSnippetRoundAfterSwapIsClassified: the servers swap generation between
// a query's eval round and its snippets round. A group with a replica still
// on the query's generation answers from it — the swapped replica's refusal
// fails over — with the snippets of the unswapped tier; a tier with no
// replica left on it fails the query with a classified skew, never with a
// snippet of the new generation. The query's winners lie outside some
// group's leading run of shards, so the round runs: a whole-document answer,
// and one whose winners all lie in leading runs, carry their snippets in the
// round that answered and take no snippets round.
func TestSnippetRoundAfterSwapIsClassified(t *testing.T) {
	sc := versionTestCorpus()
	next := shard.Build(gen.Stores(gen.StoresConfig{Retailers: 4, StoresPerRetailer: 3, ClothesPerStore: 5, Seed: 12}), 3)
	nextGen := &ingest.Generation{Corpus: next, Source: ingest.SourceOf(next)}
	if Fingerprint(nextGen.Source) == Fingerprint(ingest.SourceOf(sc)) {
		t.Fatal("fixture: the generations must differ")
	}
	const groups, replicas = 2, 2
	const bound = 6
	opts := search.Options{DistinctAnchors: true}
	// swapping is a Runner that runs its tasks, after swapping the servers
	// pick chooses onto the next generation when it is handed the query's
	// second fan-out — the snippets round.
	swapping := func(cl *cluster, pick func(g, r int) bool) shard.Runner {
		fanouts := 0
		return func(tasks []func()) error {
			if fanouts++; fanouts == 2 {
				for i, srv := range cl.servers {
					if g, r := i/replicas, i%replicas; pick(g, r) {
						srv.Swap(nextGen, WithOwnedShards(OwnedShards(nextGen.Source, g, groups)))
					}
				}
			}
			return shard.Run(nil, tasks)
		}
	}
	const q = "store texas"
	base := startCluster(t, sc, groups, replicas).router
	want, wantGs, err := base.Answer(context.Background(), search.Parse(q), opts, nil, bound)
	if err != nil || len(want) == 0 {
		t.Fatalf("%q baseline: %d results, %v", q, len(want), err)
	}
	// The groups the snippets round asks: those holding a winner outside
	// their leading run.
	_, _, fetched := keptByGroup(t, base, sc, q, opts)
	asked := 0
	for _, n := range fetched {
		if n > 0 {
			asked++
		}
	}
	if asked == 0 {
		t.Fatalf("%q: every winner lies in a leading run; the query takes no snippets round", q)
	}

	// One replica moves in each group: the one its snippets call tries
	// first, so every call is refused once and fails over to a peer.
	cl := startCluster(t, sc, groups, replicas)
	rt := cl.router
	first := make([]int, groups)
	for g := range first {
		first[g] = int(rt.groups[g].rr.Load()+1) % replicas // the eval round takes one turn
	}
	moved := func(g, r int) bool { return r == first[g] }
	sink := &telemetry.SpanSink{TraceID: telemetry.NextTraceID()}
	rs, gs, err := rt.Answer(telemetry.WithSpanSink(context.Background(), sink), search.Parse(q), opts, swapping(cl, moved), bound)
	if err != nil || len(rs) != len(want) || len(gs) != len(wantGs) {
		t.Fatalf("%q, one replica moved: %d results, %d snippets, %v; want %d", q, len(rs), len(gs), err, len(want))
	}
	if took := len(callsOf(rt, "full")) > 0; took {
		t.Fatalf("%q: whole-document round taken", q)
	}
	for i := range gs {
		if err := sameSnippet(wantGs[i], gs[i]); err != nil {
			t.Fatalf("%q: snippet %d after a failover: %v", q, i, err)
		}
	}
	refused := map[string]bool{}
	for _, h := range sink.Hops() {
		if h.Kind == "snippets" && h.Err == ErrKindSkew {
			refused[h.Group] = true
		}
	}
	if len(callsOf(rt, "snippets")) != asked || len(refused) != asked {
		t.Fatalf("%q: snippets calls %v, refused by a moved replica in groups %v: the swap missed the round", q, callsOf(rt, "snippets"), refused)
	}

	// Every replica moves: the query fails, classified.
	cl = startCluster(t, sc, groups, replicas)
	rs, gs, err = cl.router.Answer(context.Background(), search.Parse(q), opts, swapping(cl, func(int, int) bool { return true }), bound)
	var re *RemoteError
	if !errors.As(err, &re) || re.Kind != ErrKindSkew || rs != nil || gs != nil {
		t.Fatalf("%q, every replica moved: %d results, %d snippets, %v; want a %s *RemoteError", q, len(rs), len(gs), err, ErrKindSkew)
	}
	if n := callsOf(cl.router, "snippets"); len(n) != asked {
		t.Fatalf("%q: snippets calls %v: the swap missed the round", q, n)
	}
}

// TestMissingKeywordTakesOneRound: a shard missing a query keyword answers
// round one like any other, so a routed query whose root decision reads
// every shard's evidence — any ELCA query, an SLCA query with no LCA below
// the root — makes exactly one eval call per group, and no other call but
// the whole-document one, which carries the answer's snippets, when the query
// involves the root, or else the snippets call to each group holding a kept
// result outside its leading run of shards. The records the eval round
// carried for an answer that took round two are discarded, and counted.
func TestMissingKeywordTakesOneRound(t *testing.T) {
	item := func(name string) *xmltree.Node {
		return xmltree.Elem("item", xmltree.Elem("name", xmltree.Txt(name)))
	}
	mk := func() *xmltree.Document {
		return xmltree.NewDocument(xmltree.Elem("shop",
			item("red apple"), item("green apple"), item("red pear"),
			item("yellow banana"), item("green pear"), item("red banana")))
	}
	sc := shard.Build(mk(), 3)
	if sc.NumShards() != 3 || sc.Shards()[2].Index.List("apple").Len() != 0 {
		t.Fatalf("fixture: %d shards, want 3 with the last missing \"apple\"", sc.NumShards())
	}
	cl := startCluster(t, sc, 3, 1)
	rt := cl.router
	groups := 0
	for _, shards := range rt.place.Load().byGroup {
		if len(shards) > 0 {
			groups++
		}
	}
	calls := func() map[string]int64 {
		n := map[string]int64{}
		for key, c := range rt.metrics.calls {
			n[key[0]] += c.Value()
		}
		return n
	}
	fb := unshardedOf(mk())
	elca := search.Options{DistinctAnchors: true, Semantics: search.SemanticsELCA}
	slca := search.Options{DistinctAnchors: true}
	whole, discarded := 0, 0
	for _, tc := range []struct {
		q    string
		opts search.Options
	}{
		{"red apple", elca},
		{"green pear", elca},
		{"apple banana", elca},
		{"apple banana", slca}, // every keyword somewhere, no LCA below the root
		{"apple kiwi", slca},   // a keyword nowhere
	} {
		local, err := search.NewEngine(fb.Doc, fb.Index, sc.Analysis().Cls, tc.opts).Search(search.Parse(tc.q))
		if err != nil {
			t.Fatal(err)
		}
		rootInvolved := slices.ContainsFunc(local, func(r *search.Result) bool {
			return r.LCA == fb.Doc.Root || r.Anchor == fb.Doc.Root
		})
		before, origins := calls(), snippetOrigins(rt)
		rs, _, err := rt.Answer(context.Background(), search.Parse(tc.q), tc.opts, nil, 8)
		if err != nil {
			t.Fatalf("%q: %v", tc.q, err)
		}
		after, originsAfter := calls(), snippetOrigins(rt)
		wantFull, wantSnippets := int64(0), int64(0)
		if rootInvolved {
			wantFull, whole = 1, whole+1
			if n := originsAfter["full"] - origins["full"]; n != int64(len(rs)) {
				t.Errorf("%q (%v): %d snippets carried by the full round for %d results", tc.q, tc.opts.Semantics, n, len(rs))
			}
			if originsAfter["discarded"] > origins["discarded"] {
				discarded++
			}
		} else {
			_, _, fetched := keptByGroup(t, rt, sc, tc.q, tc.opts)
			for _, n := range fetched {
				if n > 0 {
					wantSnippets++
				}
			}
		}
		for kind, n := range after {
			want := int64(0)
			switch kind {
			case "eval":
				want = int64(groups)
			case "full":
				want = wantFull
			case "snippets":
				want = wantSnippets
			}
			if got := n - before[kind]; got != want {
				t.Errorf("%q (%v): %d %s calls, want %d", tc.q, tc.opts.Semantics, got, kind, want)
			}
		}
	}
	if whole == 0 || discarded == 0 {
		t.Fatalf("%d queries of the matrix involve the root, %d discarding the eval round's records", whole, discarded)
	}
}
