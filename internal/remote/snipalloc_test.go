package remote

import (
	"context"
	"testing"

	"extract/internal/core"
	"extract/internal/gen"
	"extract/internal/index"
	"extract/internal/search"
	"extract/internal/shard"
)

// TestRoutedSnippetAllocations: the router's snippets round keeps every
// snippet as the record it arrived in, in its slot of the answer's one slab
// of served snippets (core.ServedSnippets), and reads its XML, edges and key
// out of the record's head (takeSnippets): no scratch tree is built, nothing
// is rendered, and no snippet is an allocation of its own. So making the
// slab and decoding a response into it allocates the same count of objects
// for one snippet as for twelve, at bounds 4 and 20, for queries whose
// ILists differ in length: nothing per snippet, per snippet node or per
// IList item.
func TestRoutedSnippetAllocations(t *testing.T) {
	if raceDetector {
		t.Skip("the race detector's own allocations make counts inexact")
	}
	sc := shard.Build(gen.Stores(gen.StoresConfig{Retailers: 4, StoresPerRetailer: 4, ClothesPerStore: 6, Seed: 7}), 1)
	srv := NewServer(sc)
	defer srv.Close()
	st := srv.state.Load()
	opts := search.Options{DistinctAnchors: true}

	// body returns the snippets response body for the first n results of q.
	body := func(q string, n, bound int) []byte {
		parts, _, err := sc.EvalShards(context.Background(), search.Parse(q), opts, []int{0}, nil)
		if err != nil || len(parts[0].Results) < n {
			t.Fatalf("%q: %d results, want %d (%v)", q, len(parts[0].Results), n, err)
		}
		handles := make([]handle, n)
		for i, h := range parts[0].Results[:n] {
			handles[i] = handle{shard: 0, anchor: h.Anchor, lca: h.LCA}
		}
		req := encodeTreesReq(treesReq{opts: opts, query: q, fingerprint: st.fingerprint, bound: bound, handles: handles})
		got, resp := srv.handle(msgSnippets, req, nil)
		if got != msgSnippetsResp {
			t.Fatalf("%q: snippets request answered with message %d", q, got)
		}
		return resp[respHeaderLen:]
	}
	const many = 12
	perSnippet := map[float64][]string{}
	var edges, items []int
	for _, q := range []string{"store", "clothes"} {
		kws := index.Tokenize(q)
		for _, bound := range []int{4, 20} {
			allocs := func(n int) (float64, int, int) {
				b := body(q, n, bound)
				gs, idx := make([]*core.Generated, n), make([]int, n)
				for i := range idx {
					idx[i] = i
				}
				take := func() {
					if err := takeSnippets(b, kws, bound, core.NewServedSnippets(n), gs, idx); err != nil {
						t.Fatal(err)
					}
				}
				take()
				e, it := 0, 0
				for _, g := range gs {
					d := g.Derived()
					e += d.Edges
					it += len(d.IList.Items)
				}
				return testing.AllocsPerRun(50, take), e, it
			}
			one, _, _ := allocs(1)
			all, e, it := allocs(many)
			per := (all - one) / (many - 1)
			perSnippet[per] = append(perSnippet[per], q)
			edges, items = append(edges, e), append(items, it)
			t.Logf("%q bound %d: %v objects for one snippet, %v for %d (%d edges, %d IList items)", q, bound, one, all, many, e, it)
		}
	}
	if len(perSnippet) != 1 {
		t.Fatalf("objects per snippet differ by bound or query: %v", perSnippet)
	}
	for per := range perSnippet {
		if per != 0 {
			t.Fatalf("%v objects per snippet, want none: the answer's slab holds them", per)
		}
	}
	if edges[1] < 2*edges[0] || items[0] == items[2] {
		t.Fatalf("edges %v and IList items %v: the fixture does not vary what a snippet holds", edges, items)
	}
}

// TestServerRecordsAllocations: a shard server writes its snippet records
// into pooled buffers, one a fan-out task (shard.Records), and the encoder
// copies them from there into the response (appendRecords) before they go
// back to the pool — so no record is an allocation of its own, and writing
// and encoding a snippets response of 3 records allocates the same count of
// objects as one of 30, and no more than the measured ceiling.
func TestServerRecordsAllocations(t *testing.T) {
	if raceDetector {
		t.Skip("the race detector's own allocations make counts inexact")
	}
	sc := shard.Build(gen.Stores(gen.StoresConfig{Retailers: 4, StoresPerRetailer: 4, ClothesPerStore: 6, Seed: 7}), 1)
	srv := NewServer(sc)
	defer srv.Close()
	st := srv.state.Load()
	ctx := context.Background()
	const bound = 6
	q := search.Parse("clothes")
	opts := search.Options{DistinctAnchors: true}
	parts, round, err := sc.EvalShards(ctx, q, opts, []int{0}, nil)
	if err != nil || len(parts[0].Results) < 30 {
		t.Fatalf("%q: %d results, want 30 (%v)", q.Text, len(parts[0].Results), err)
	}
	rs := round.Build(nil, parts[0].Results)
	var enc []byte
	respond := func(n int) {
		recs, err := srv.records(ctx, st, rs[:n], q.Keywords, bound)
		if err != nil {
			t.Fatal(err)
		}
		enc = appendRecords(append(enc[:0], make([]byte, respHeaderLen)...), recs)
		recs.Release()
	}
	counts := map[int]float64{}
	for _, n := range []int{3, 30} {
		respond(n) // the pooled buffers grow to the records
		counts[n] = testing.AllocsPerRun(50, func() { respond(n) })
		if recs, err := decodeSnippetsResp(enc[respHeaderLen:]); err != nil || len(recs) != n {
			t.Fatalf("a response of %d records decodes to %d (%v)", n, len(recs), err)
		}
	}
	t.Logf("objects: %v", counts)
	// The keywords arrive parsed (the handler parses the request's query
	// once), so writing and encoding the records allocates this many.
	const ceiling = 4
	if counts[3] > ceiling {
		t.Fatalf("a response of 3 records allocates %v objects, ceiling %d", counts[3], ceiling)
	}
	if counts[3] != counts[30] {
		t.Fatalf("a response of 3 records allocates %v objects, one of 30 %v: records are allocated one by one", counts[3], counts[30])
	}
}

// TestRoutedWinnersAllocations: a routed answer takes its winners from slabs
// — their deferred results and pending state from one, their match depths
// from one of the exact size, their served snippets from a third
// (answerTrees.take, routedRounds.snippets) — and the shard server ships the
// hits it does not snippet as positions, building none of them. So an
// answer's object count, router and in-process servers together, grows by at
// most one per winner: measured between answers of 2 and 20 winners, search
// only and at a snippet bound, from one replica group whose leading run is
// every shard, so every winner's record rides with the eval round.
func TestRoutedWinnersAllocations(t *testing.T) {
	if raceDetector {
		t.Skip("the race detector's own allocations make counts inexact")
	}
	sc := shard.Build(gen.Stores(gen.StoresConfig{Retailers: 8, StoresPerRetailer: 4, ClothesPerStore: 6, Seed: 7}), 4)
	rt := startCluster(t, sc, 1, 1).router
	ctx := context.Background()
	q := search.Parse("clothes")
	for _, bound := range []int{-1, 6} {
		allocs := func(winners int) float64 {
			opts := search.Options{DistinctAnchors: true, MaxResults: winners}
			answer := func() {
				rs, gs, err := rt.Answer(ctx, q, opts, nil, bound)
				if err != nil || len(rs) != winners || bound >= 0 && len(gs) != winners {
					t.Fatalf("bound %d: %d results, %d snippets, want %d (%v)", bound, len(rs), len(gs), winners, err)
				}
			}
			answer()
			return testing.AllocsPerRun(50, answer)
		}
		const few, many = 2, 20
		a, b := allocs(few), allocs(many)
		per := (b - a) / (many - few)
		t.Logf("bound %d: %v objects for %d winners, %v for %d: %.2f a winner", bound, a, few, b, many, per)
		if per > 1 {
			t.Errorf("bound %d: a routed answer allocates %.2f objects a winner, want at most 1", bound, per)
		}
	}
}

// TestUnreadAnswerAllocations pins what an answer allocates for its winners
// when no tree is read (newAnswerTrees): the answer, its handles, the
// winners' match depths and the deferred results' two slabs — five objects
// for 2 winners and for 20. The tree slots are made by the first fetch
// (answerTrees.Tree), which TestTreeReadTakesOneRoundPerGroup drives; an
// answer nobody reads a tree of never makes them.
func TestUnreadAnswerAllocations(t *testing.T) {
	if raceDetector {
		t.Skip("the race detector's own allocations make counts inexact")
	}
	q := search.Parse("clothes store")
	for _, n := range []int{2, 20} {
		winners := make([]scanned, n)
		for i := range winners {
			winners[i] = scanned{at: handle{shard: int32(i % 4), anchor: int32(i), lca: int32(i)}, nodes: 3, depths: "\x02\x00"}
		}
		allocs := testing.AllocsPerRun(100, func() { newAnswerTrees(nil, nil, q, search.Options{}, winners) })
		if allocs != 5 {
			t.Errorf("%d winners: an unread answer allocates %v objects, want 5", n, allocs)
		}
	}
}
