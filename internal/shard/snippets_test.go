package shard

import (
	"context"
	"errors"
	"runtime"
	"sync/atomic"
	"testing"

	"extract/internal/faultinject"
	"extract/internal/gen"
	"extract/internal/index"
	"extract/internal/search"
	"extract/xmltree"
)

// TestSnippetFanOutCancellation: the snippet tasks claim results one at a
// time from a shared cursor, largest first, each claim behind a checkpoint. A
// query cancelled as the Nth snippet is claimed — the first, one mid-list,
// the last but one — stops every task at its next claim, fails with the
// context's error and hands back no snippet set, never a partly filled one;
// on a live context every slot is filled, aligned with the results.
func TestSnippetFanOutCancellation(t *testing.T) {
	defer faultinject.Reset()
	sc := Build(gen.Stores(gen.StoresConfig{Retailers: 6, StoresPerRetailer: 3, ClothesPerStore: 5, Seed: 21}), 3)
	const q = "store"
	rs, err := sc.Search(q, search.Options{DistinctAnchors: true})
	if err != nil || len(rs) < 8 {
		t.Fatalf("%d results, err %v", len(rs), err)
	}
	g, kws := sc.Generator(), index.Tokenize(q)

	order := largestFirst(rs)
	for k := 1; k < len(order); k++ {
		a, b := order[k-1], order[k]
		if la, lb := rs[a].Doc.Len(), rs[b].Doc.Len(); la < lb || (la == lb && a > b) {
			t.Fatalf("claim order %v: result %d (%d nodes) before result %d (%d nodes)", order, a, la, b, lb)
		}
	}

	gs, err := Snippets(context.Background(), nil, g, rs, kws, 8)
	if err != nil || len(gs) != len(rs) {
		t.Fatalf("%d snippets for %d results, err %v", len(gs), len(rs), err)
	}
	for i, r := range rs {
		if got, want := xmltree.XMLString(gs[i].Snippet.Root), xmltree.XMLString(g.ForResultTokens(r, kws, 8).Snippet.Root); got != want {
			t.Fatalf("snippet %d is not result %d's:\n%s\nwant\n%s", i, i, got, want)
		}
	}

	tasks := int64(min(runtime.GOMAXPROCS(0), len(rs)))
	for _, at := range []int64{1, int64(len(rs)) / 2, int64(len(rs)) - 1} {
		ctx, cancel := context.WithCancel(context.Background())
		var claims atomic.Int64
		faultinject.Set(faultinject.SnippetGen, func() error {
			if claims.Add(1) == at {
				cancel()
			}
			return nil
		})
		gs, err := Snippets(ctx, nil, g, rs, kws, 8)
		cancel()
		if gs != nil || !errors.Is(err, context.Canceled) {
			t.Fatalf("cancelled at claim %d: %d snippets, err %v; want none and context.Canceled", at, len(gs), err)
		}
		// Every task stops at its next claim: at most one claim each was
		// already past the context check when the cancel landed.
		if n := claims.Load(); n < at || n >= at+tasks {
			t.Fatalf("cancelled at claim %d of %d: %d claims reached the fault point with %d tasks", at, len(rs), n, tasks)
		}
	}
}
