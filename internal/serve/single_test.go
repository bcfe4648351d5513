package serve

import (
	"context"
	"fmt"
	"testing"

	"extract/internal/core"
	"extract/internal/gen"
	"extract/internal/search"
	"extract/internal/shard"
)

// directSingleHits computes the reference response straight off a one-shard
// corpus's own engine and a private generator — the direct evaluation path
// the served one-shard backend must reproduce byte for byte.
func directSingleHits(cc *core.Corpus, query string, opts search.Options, bound int) ([]string, error) {
	rs, err := cc.Engine(opts).Search(search.Parse(query))
	if err != nil {
		return nil, err
	}
	g := core.NewGenerator(cc)
	gs := make([]*core.Generated, len(rs))
	for i, r := range rs {
		gs[i] = g.ForResult(r, query, bound)
	}
	return renderHits(rs, gs), nil
}

// TestSingleBackendEqualsDirect is the unification property: a one-shard
// corpus served through the layer — first computation, cache hit, and
// post-swap recomputation — answers byte-identical to direct evaluation on
// its engine, for every corpus, option combination and query mix.
func TestSingleBackendEqualsDirect(t *testing.T) {
	optsList := []search.Options{
		{DistinctAnchors: true},
		{DistinctAnchors: true, Semantics: search.SemanticsELCA},
		{DistinctAnchors: true, Mode: search.ModeXSeek},
		{DistinctAnchors: true, MaxResults: 3},
	}
	for name, mk := range testCorpora() {
		sc := shard.Build(mk(), 1)
		cc := sc.Shards()[0]
		srv := New(sc, WithWorkers(2))
		defer srv.Close()
		queries := corpusQueries(mk())
		for _, opts := range optsList {
			for _, q := range queries {
				label := fmt.Sprintf("%s/sem=%d/mode=%d/max=%d/q=%q",
					name, opts.Semantics, opts.Mode, opts.MaxResults, q)
				want, werr := directSingleHits(cc, q, opts, 10)
				for pass := 0; pass < 3; pass++ {
					rs, gs, gerr := srv.QueryContext(context.Background(), q, opts, 10)
					if (werr == nil) != (gerr == nil) {
						t.Fatalf("%s pass %d: errors differ: %v vs %v", label, pass, werr, gerr)
					}
					if werr != nil {
						continue
					}
					got := renderHits(rs, gs)
					if len(got) != len(want) {
						t.Fatalf("%s pass %d: %d hits, want %d", label, pass, len(got), len(want))
					}
					for i := range want {
						if got[i] != want[i] {
							t.Fatalf("%s pass %d: hit %d differs\nwant %s\ngot  %s",
								label, pass, i, want[i], got[i])
						}
					}
				}
			}
		}
		st := srv.Stats()
		if st.Hits == 0 {
			t.Fatalf("%s: repeated queries never hit the single-backend cache (%+v)", name, st)
		}
	}
}

// TestSwapAcrossShapes pins Swap between corpus shapes: a server can trade
// a many-shard backend for a one-shard one (and back), always answering from
// the corpus swapped in last and never from stale entries.
func TestSwapAcrossShapes(t *testing.T) {
	mkA := func() *shard.Corpus { return shard.Build(gen.Figure1Corpus(), 1) }
	scB := shard.Build(gen.Stores(gen.StoresConfig{Retailers: 5, StoresPerRetailer: 2, ClothesPerStore: 3, Seed: 11}), 3)
	opts := search.Options{DistinctAnchors: true}

	srv := New(mkA())
	defer srv.Close()
	q := "retailer texas"
	if _, _, err := srv.QueryContext(context.Background(), q, opts, 8); err != nil { // cache against A
		t.Fatal(err)
	}

	srv.Swap(scB) // one shard -> three
	if st := srv.Stats(); st.Entries != 0 {
		t.Fatalf("swap left cache entries behind: %+v", st)
	}
	for _, query := range []string{q, "store jeans"} {
		want, werr := uncachedHits(scB, query, opts, 8)
		got, gs, gerr := srv.QueryContext(context.Background(), query, opts, 8)
		if (werr == nil) != (gerr == nil) {
			t.Fatalf("q=%q: errors differ: %v vs %v", query, werr, gerr)
		}
		if werr == nil && fmt.Sprint(renderHits(got, gs)) != fmt.Sprint(want) {
			t.Fatalf("q=%q after swap to sharded: response differs", query)
		}
	}

	scA2 := mkA()
	srv.Swap(scA2) // three shards -> one
	want, err := directSingleHits(scA2.Shards()[0], q, opts, 8)
	if err != nil {
		t.Fatal(err)
	}
	rs, gs, err := srv.QueryContext(context.Background(), q, opts, 8)
	if err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(renderHits(rs, gs)) != fmt.Sprint(want) {
		t.Fatal("response after swap back to one shard differs from direct evaluation")
	}
}
