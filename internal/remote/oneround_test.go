package remote

import (
	"context"
	"fmt"
	"slices"
	"testing"

	"extract/internal/search"
	"extract/xmltree"
)

// TestProvableWinnersTakeOneRound: when every winner of a snippeted answer
// lies in its group's leading run of shards (shard.LeadingRun) — the cut
// falls in shard 0, or one group holds every shard — the eval round carries
// every snippet: the router makes exactly one eval call per group holding
// shards and no other call, and the answer equals the local one byte for
// byte, results and snippets (sameSnippet), every snippet counted as carried
// by the eval round.
func TestProvableWinnersTakeOneRound(t *testing.T) {
	sc := versionTestCorpus()
	queries := testQueries(versionTestDoc())
	ctx := context.Background()
	const bound = 8
	for _, groups := range []int{1, 2} {
		rt := startCluster(t, sc, groups, 1).router
		holding := 0
		for _, shards := range rt.place.Load().byGroup {
			if len(shards) > 0 {
				holding++
			}
		}
		calls := func() map[string]int64 {
			n := map[string]int64{}
			for key, c := range rt.metrics.calls {
				n[key[0]] += c.Value()
			}
			return n
		}
		provable := 0
		for _, opts := range []search.Options{
			{DistinctAnchors: true, MaxResults: 1},
			{DistinctAnchors: true, MaxResults: 2},
			{DistinctAnchors: true, Semantics: search.SemanticsELCA, MaxResults: 2},
			{DistinctAnchors: true},
		} {
			for _, q := range queries {
				want, wantGs, err := sc.Answer(ctx, q, opts, nil, bound)
				if err != nil || len(want) == 0 || slices.ContainsFunc(want, isWhole) {
					continue
				}
				if _, _, fetched := keptByGroup(t, rt, sc, q, opts); slices.ContainsFunc(fetched, func(n int) bool { return n > 0 }) {
					continue
				}
				label := fmt.Sprintf("%d groups, %+v, %q", groups, opts, q)
				before, origins := calls(), snippetOrigins(rt)
				rs, gs, err := rt.Answer(ctx, q, opts, nil, bound)
				if err != nil || len(rs) != len(want) || len(gs) != len(wantGs) {
					t.Fatalf("%s: %d results, %d snippets, %v; want %d", label, len(rs), len(gs), err, len(want))
				}
				after, originsAfter := calls(), snippetOrigins(rt)
				for kind, n := range after {
					wantCalls := int64(0)
					if kind == "eval" {
						wantCalls = int64(holding)
					}
					if got := n - before[kind]; got != wantCalls {
						t.Fatalf("%s: %d %s calls, want %d", label, got, kind, wantCalls)
					}
				}
				if n := originsAfter["eval"] - origins["eval"]; n != int64(len(rs)) || originsAfter["handle"] != origins["handle"] {
					t.Fatalf("%s: %d of %d snippets carried by the eval round", label, n, len(rs))
				}
				for i := range wantGs {
					if err := sameSnippet(wantGs[i], gs[i]); err != nil {
						t.Fatalf("%s: snippet %d: %v", label, i, err)
					}
					tree, err := rs[i].Tree(ctx)
					if err != nil {
						t.Fatal(err)
					}
					if w, g := xmltree.XMLString(want[i].Root), xmltree.XMLString(tree.Root); w != g {
						t.Fatalf("%s: result %d differs\nwant %s\ngot  %s", label, i, w, g)
					}
				}
				provable++
			}
		}
		if provable < 10 {
			t.Fatalf("%d groups: only %d answers with every winner in a leading run", groups, provable)
		}
	}
}

// isWhole reports whether r is a whole-document result, which the full round
// carries.
func isWhole(r *search.Result) bool {
	view, _ := r.Whole()
	return view != nil
}
