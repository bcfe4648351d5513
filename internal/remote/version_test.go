package remote

import (
	"context"
	"net"
	"testing"

	"extract/internal/gen"
	"extract/internal/search"
	"extract/internal/shard"
	"extract/internal/telemetry"
)

// Wire-version negotiation pins: a new router against a new server speaks
// v2 (trace IDs out, server-side stage timings back); against an old
// server — simulated both as a pre-negotiation build that rejects the
// hello request and as a build capped at v1 — it falls back to v1, and
// answers stay byte-identical either way.

// startVersionCluster serves sc from one replica group of one server,
// with mutate applied to the server before it starts accepting.
func startVersionCluster(t *testing.T, sc *shard.Corpus, mutate func(*Server)) *cluster {
	t.Helper()
	src := CorpusSource(sc)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	srv := NewServer(sc, WithOwnedShards(OwnedShards(src, 0, 1)))
	if mutate != nil {
		mutate(srv)
	}
	go srv.Serve(ln)
	c := &cluster{servers: []*Server{srv}, lns: []net.Listener{ln},
		addrs: [][]string{{ln.Addr().String()}}}
	rt, err := NewRouter(sc.Analysis(), src, c.addrs)
	if err != nil {
		c.Close()
		t.Fatalf("NewRouter: %v", err)
	}
	c.router = rt
	t.Cleanup(c.Close)
	return c
}

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

func TestNegotiationV2ReportsServerStages(t *testing.T) {
	cl := startVersionCluster(t, versionTestCorpus(), nil)
	hops := tracedSearch(t, cl.router, "store texas")
	for _, h := range hops {
		if h.Err != "" {
			t.Fatalf("unexpected hop error %q: %+v", h.Err, h)
		}
		if h.Replica == "" || h.Group == "" || h.Kind == "" {
			t.Fatalf("hop missing identity: %+v", h)
		}
		if h.ServerDecode <= 0 || h.ServerEncode <= 0 {
			t.Fatalf("v2 hop missing server-side stage timings: %+v", h)
		}
	}
}

func TestLegacyHelloServerFallsBackToV1(t *testing.T) {
	for _, tc := range []struct {
		name   string
		mutate func(*Server)
	}{
		{"legacy-hello", func(s *Server) { s.legacyHello = true }},
		{"v1-capped", func(s *Server) { s.maxVer = 1 }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cl := startVersionCluster(t, versionTestCorpus(), tc.mutate)
			hops := tracedSearch(t, cl.router, "store texas")
			for _, h := range hops {
				if h.Err != "" {
					t.Fatalf("unexpected hop error %q: %+v", h.Err, h)
				}
				// A v1 peer cannot report stage timings; the wire duration
				// is still measured client-side.
				if h.ServerDecode != 0 || h.ServerEval != 0 || h.ServerDigest != 0 || h.ServerEncode != 0 {
					t.Fatalf("v1 hop carries server stages: %+v", h)
				}
				if h.Wire <= 0 {
					t.Fatalf("hop missing wire duration: %+v", h)
				}
			}
		})
	}
}

// TestByteIdentityAcrossVersions pins the answer-transparency property on
// a downgraded connection: a router forced to v1 by a legacy peer returns
// byte-identical results, snippets and scores.
func TestByteIdentityAcrossVersions(t *testing.T) {
	sc := versionTestCorpus()
	cl := startVersionCluster(t, sc, func(s *Server) { s.legacyHello = true })
	checkRouterEquivalence(t, "legacy-v1", sc, cl.router, testOptions)
}

// TestServerTelemetryCountsRequests pins the shard-server registry: served
// requests land in extract_shard_server_requests_total and stage
// histograms observe the stages that ran.
func TestServerTelemetryCountsRequests(t *testing.T) {
	reg := telemetry.NewRegistry()
	sc := versionTestCorpus()
	src := CorpusSource(sc)
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
	sums := map[string]float64{}
	stageCounts := uint64(0)
	for _, m := range snap.Metrics {
		if m.Name == "extract_shard_server_requests_total" {
			sums[m.Name] += m.Value
		}
		if m.Name == "extract_shard_server_stage_seconds" && m.Histogram != nil {
			stageCounts += m.Histogram.Count
		}
	}
	if sums["extract_shard_server_requests_total"] < 2 {
		t.Fatalf("expected hello+eval requests counted, got %v", sums)
	}
	if stageCounts == 0 {
		t.Fatal("no stage observations recorded")
	}
}
