package remote

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"slices"
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

func versionTestCorpus() *shard.Corpus {
	return shard.Build(gen.Stores(gen.StoresConfig{Retailers: 4, StoresPerRetailer: 3, ClothesPerStore: 5, Seed: 11}), 3)
}

// TestRoutedHopsReportServerStages: trace IDs out and server stage timings
// back are unconditional parts of the one wire layout, so every hop of a
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
// v5 or v6 greeting is an empty frame.
var retiredGreeting = []byte{7, 0, 0, 0, 0, 0, 0, 0, 3, 3, 0, 1, 2}

// v4Ping is the retired v4 health probe's message type: v5 dropped ping and
// pong, and the type number now belongs to the error message.
const v4Ping = msgType(8)

// TestOtherWireVersionsRefused: a frame at any version but wireVersion —
// the retired v1 to v5 a stale peer would still speak, or a future one — is
// a *ProtocolError naming both versions, whichever side reads it: the router
// reading a greeting, the server reading a request. The server hangs up on
// it without evaluating anything.
func TestOtherWireVersionsRefused(t *testing.T) {
	greeting := retiredGreeting
	request := encodeEvalReq(evalReq{opts: search.Options{DistinctAnchors: true}, query: "store", shards: []uint32{0}, bound: -1})
	// A v2 eval request is a v3 (v4, v5) one without the trailing snippet
	// bound.
	v2Request := request[:len(request)-1]
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
		{"v2 eval request", 2, msgEval, appendTraceID(v2Request, 1)},
		{"v3 greeting", 3, msgHello, greeting},
		{"v3 eval request", 3, msgEval, appendTraceID(request, 1)},
		{"v3 digest request", 3, msgType(4), appendTraceID(request, 1)},
		{"v4 greeting", 4, msgHello, greeting},
		{"v4 eval request", 4, msgEval, appendTraceID(request, 1)},
		{"v4 ping", 4, v4Ping, nil},
		{"v5 greeting", 5, msgHello, nil},
		{"v5 eval request", 5, msgEval, appendTraceID(request, 1)},
		{"v5 eval response", 5, msgEvalResp, append(appendRespHeader(nil, 7), v5EvalResp...)},
		{"v7 greeting", wireVersion + 1, msgHello, nil},
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
	if _, err := client.Write(frameBytes(5, msgEval, appendTraceID(request, 1))); err != nil {
		t.Fatal(err)
	}
	if _, _, err := readFrame(client); !errors.Is(err, io.EOF) {
		t.Fatalf("after a v5 request: %v, want the connection closed", err)
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

// TestSnippetedAnswerTakesNoExtraRound: a routed query with snippets is
// answered in the rounds a search-only one is — one eval call per group, the
// whole-document round only when the merge needs it — because
// the snippets ride on the eval and whole-document answers; and reading the
// answer's trees afterwards makes no eval, full or stats call (it fetches the
// trees by handle; TestTreeReadTakesOneRoundPerGroup counts those calls).
func TestSnippetedAnswerTakesNoExtraRound(t *testing.T) {
	sc := versionTestCorpus()
	cl := startCluster(t, sc, 2, 1)
	rt := cl.router
	calls := func() map[string]int64 {
		n := map[string]int64{}
		for key, c := range rt.metrics.calls {
			n[key[0]] += c.Value()
		}
		return n
	}
	fb := sc.Fallback()
	queries := append(testQueries(fb.Doc, fb), fb.Doc.Root.Label)
	ctx := context.Background()
	answered, full := 0, int64(0)
	for _, opts := range []search.Options{{DistinctAnchors: true}, {DistinctAnchors: true, Semantics: search.SemanticsELCA, MaxResults: 3}} {
		for _, q := range queries {
			before := calls()
			if _, _, err := rt.Answer(ctx, q, opts, nil, -1); err != nil {
				continue
			}
			searchOnly := calls()
			rs, gs, err := rt.Answer(ctx, q, opts, nil, 8)
			if err != nil || len(gs) != len(rs) {
				t.Fatalf("%q: %d snippets for %d results, %v", q, len(gs), len(rs), err)
			}
			snippeted := calls()
			for _, r := range rs {
				if _, err := r.Tree(context.Background()); err != nil {
					t.Fatalf("%q: tree: %v", q, err)
				}
			}
			read := calls()
			for _, kind := range []string{"eval", "full", "stats"} {
				if a, b := searchOnly[kind]-before[kind], snippeted[kind]-searchOnly[kind]; a != b {
					t.Fatalf("%q: %v %s calls with snippets, %v without", q, b, kind, a)
				}
				if read[kind] != snippeted[kind] {
					t.Fatalf("%q: reading the trees made %v %s calls", q, read[kind]-snippeted[kind], kind)
				}
			}
			if n := snippeted["eval"] - searchOnly["eval"]; n != 2 {
				t.Fatalf("%q: %v eval calls for two groups", q, n)
			}
			answered++
			full += snippeted["full"] - searchOnly["full"]
		}
	}
	if answered == 0 || full == 0 {
		t.Fatalf("%d queries answered, %v of them by the whole-document round: the matrix proves nothing", answered, full)
	}
}

// TestMissingKeywordTakesOneRound: a shard missing a query keyword answers
// round one like any other, so a routed query whose root decision reads
// every shard's evidence — any ELCA query, an SLCA query with no LCA below
// the root — makes exactly one eval call per group, and no other call but
// the whole-document one when the query involves the root.
func TestMissingKeywordTakesOneRound(t *testing.T) {
	item := func(name string) *xmltree.Node {
		return xmltree.Elem("item", xmltree.Elem("name", xmltree.Txt(name)))
	}
	doc := xmltree.NewDocument(xmltree.Elem("shop",
		item("red apple"), item("green apple"), item("red pear"),
		item("yellow banana"), item("green pear"), item("red banana")))
	sc := shard.Build(doc, 3)
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
	fb := sc.Fallback()
	elca := search.Options{DistinctAnchors: true, Semantics: search.SemanticsELCA}
	slca := search.Options{DistinctAnchors: true}
	whole := 0
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
		local, err := search.NewEngine(fb.Doc, fb.Index, sc.Analysis().Cls, tc.opts).Search(tc.q)
		if err != nil {
			t.Fatal(err)
		}
		rootInvolved := slices.ContainsFunc(local, func(r *search.Result) bool {
			return r.LCA == fb.Doc.Root || r.Anchor == fb.Doc.Root
		})
		before := calls()
		if _, _, err := rt.Answer(context.Background(), tc.q, tc.opts, nil, 8); err != nil {
			t.Fatalf("%q: %v", tc.q, err)
		}
		after := calls()
		wantFull := int64(0)
		if rootInvolved {
			wantFull, whole = 1, whole+1
		}
		for kind, n := range after {
			want := int64(0)
			switch kind {
			case "eval":
				want = int64(groups)
			case "full":
				want = wantFull
			}
			if got := n - before[kind]; got != want {
				t.Errorf("%q (%v): %d %s calls, want %d", tc.q, tc.opts.Semantics, got, kind, want)
			}
		}
	}
	if whole == 0 {
		t.Fatal("no query of the matrix involves the root")
	}
}
