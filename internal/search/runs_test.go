package search_test

import (
	"fmt"
	"maps"
	"slices"
	"testing"

	"extract/internal/gen"
	"extract/internal/index"
	"extract/internal/search"
	"extract/internal/shard"
	"extract/internal/workload"
	"extract/xmltree"
)

// matchesWithin is the per-result table results carried before their
// matches became runs: per keyword, the run of its posting list inside the
// anchor's subtree, absent when empty. Kept as the reference.
func matchesWithin(anchor *xmltree.Node, keywords []string, lists []*index.PostingList) map[string][]*xmltree.Node {
	matches := make(map[string][]*xmltree.Node, len(keywords))
	for i, kw := range keywords {
		pl := lists[i]
		if lo, hi := pl.Within(anchor.Start, anchor.End); hi > lo {
			matches[kw] = pl.Nodes[lo:hi:hi]
		}
	}
	return matches
}

// referenceDepth is MatchDepth over the reference table.
func referenceDepth(anchor *xmltree.Node, ms []*xmltree.Node) (int, bool) {
	if len(ms) == 0 {
		return 0, false
	}
	best := -1
	for _, m := range ms {
		if d := max(m.Depth()-anchor.Depth(), 0); best < 0 || d < best {
			best = d
		}
	}
	return best, true
}

// TestMatchesArePostingRuns: a result's matches, read through Matches and
// MatchKeywords, equal the table they replace for every keyword of the query
// (nil when the result has none), alias the posting list capacity-clipped,
// and give the same MatchDepth — over generated corpora at 1, 3 and 4
// shards, SLCA and ELCA, subtree views and ModeXSeek projections.
func TestMatchesArePostingRuns(t *testing.T) {
	corpora := []*xmltree.Document{
		gen.Stores(gen.StoresConfig{Retailers: 4, StoresPerRetailer: 3, ClothesPerStore: 5, Seed: 11}),
		gen.Movies(gen.MoviesConfig{Movies: 12, Seed: 5}),
		gen.Auctions(gen.AuctionsConfig{Seed: 3}),
	}
	results, absent, projections := 0, 0, 0
	for ci, doc := range corpora {
		var queries []string
		for _, q := range workload.Generate(doc, workload.Config{Queries: 6, Keywords: 2, Seed: 13}) {
			queries = append(queries, q.Text())
		}
		for _, q := range workload.Generate(doc, workload.Config{Queries: 4, Keywords: 3, Seed: 29}) {
			queries = append(queries, q.Text())
		}
		queries = append(queries, doc.Root.Label, `"brook brothers" store`)
		for _, n := range []int{1, 3, 4} {
			sc := shard.Build(doc, n)
			for _, opts := range []search.Options{
				{DistinctAnchors: true},
				{DistinctAnchors: true, Semantics: search.SemanticsELCA},
				{DistinctAnchors: true, Mode: search.ModeXSeek},
				{DistinctAnchors: false, Semantics: search.SemanticsELCA, Mode: search.ModeXSeek},
			} {
				for si, c := range sc.Shards() {
					eng := c.Engine(opts)
					for _, q := range queries {
						ev, rs, err := eng.EvaluateResults(q, nil)
						if err != nil {
							t.Fatalf("%q: %v", q, err)
						}
						// Results for nodes the caller picks (as a merge
						// does) need not hold every keyword.
						if first := ev.Lists[0]; first.Len() > 0 {
							rs = append(rs, eng.Results(ev, first.Nodes[:min(first.Len(), 4)])...)
						}
						for ri, r := range rs {
							at := fmt.Sprintf("corpus %d, %d shards, %+v, shard %d, %q, result %d", ci, n, opts, si, q, ri)
							want := matchesWithin(r.Anchor, ev.Keywords, ev.Lists)
							if got, w := r.MatchKeywords(), slices.Sorted(maps.Keys(want)); !slices.Equal(got, w) {
								t.Fatalf("%s: match keywords %q, want %q", at, got, w)
							}
							for ki, kw := range append(slices.Clone(ev.Keywords), "zzznosuchkeyword") {
								got, w := r.Matches(kw), want[kw]
								if (got == nil) != (w == nil) || !slices.Equal(got, w) || cap(got) != len(got) {
									t.Fatalf("%s: %q matches %v (cap %d), want %v", at, kw, got, cap(got), w)
								}
								if w == nil && ki < len(ev.Keywords) {
									absent++
								}
								gd, gok := r.MatchDepth(kw)
								wd, wok := referenceDepth(r.Anchor, w)
								if gd != wd || gok != wok {
									t.Fatalf("%s: %q depth %d %v, want %d %v", at, kw, gd, gok, wd, wok)
								}
							}
							if !r.IsView() {
								projections++
							}
							results++
						}
					}
				}
			}
		}
	}
	if results < 500 || absent == 0 || projections == 0 {
		t.Fatalf("%d results, %d absent keywords, %d projections: the matrix proves nothing", results, absent, projections)
	}
}
