package shard

import (
	"context"
	"testing"

	"extract/internal/index"
	"extract/internal/search"
)

// TestShippedMatchesBuilt: what a shard server ships of a view hit without
// building it (Round.Shipped, search.Engine.Shipped) is what the built result
// answers — its node count Size()+1, and per query term its MatchDepth, -1
// where it has none, which is also the depth by definition
// (matchDepthByDefinition; Shipped and MatchDepth share one rule) — for every
// hit round one yields on the generated corpora at 1, 3 and 4 shards, under
// SLCA and ELCA, with and without DistinctAnchors, bounded and unbounded;
// and for hand-made hits, one for every element of a shard as its LCA with
// its anchor, whose anchors miss some query terms. The fixture must reach a
// term with no match inside the anchor, a match at the anchor (depth 0), and
// a view whose matches all lie below the anchor, where MatchDepth stops at
// the first depth-1 match (the floor-1 case).
func TestShippedMatchesBuilt(t *testing.T) {
	var hits, missing, atAnchor, floorOne int
	check := func(name string, round *Round, q search.Query, h search.Hit) {
		t.Helper()
		depths := make([]int, len(q.Keys))
		nodes := round.Shipped(h, depths)
		r := round.Build(nil, []search.Hit{h})[0]
		if nodes != r.Size()+1 {
			t.Fatalf("%s hit %+v: ships %d nodes, the built result has %d", name, h, nodes, r.Size()+1)
		}
		for k, kw := range q.Keys {
			d, ok := r.MatchDepth(kw)
			if !ok {
				d = -1
			}
			def, ok := matchDepthByDefinition(r, kw)
			if !ok {
				def = -1
			}
			if depths[k] != d || d != def {
				t.Fatalf("%s hit %+v term %q: ships depth %d, the built result's is %d, by definition %d", name, h, kw, depths[k], d, def)
			}
			switch {
			case d < 0:
				missing++
			case d == 0:
				atAnchor++
			case d == 1 && r.IsView() && len(r.Matches(kw)) > 1:
				floorOne++
			}
		}
		hits++
	}
	for _, cc := range generatedCorpora() {
		doc := cc.mk()
		queries := equivQueries(doc, index.Build(doc))
		for _, n := range []int{1, 3, 4} {
			sc := Build(cc.mk(), n) // a build reparents the document's nodes
			all := make([]int, sc.NumShards())
			for i := range all {
				all[i] = i
			}
			for _, sem := range []search.Semantics{search.SemanticsSLCA, search.SemanticsELCA} {
				for _, distinct := range []bool{true, false} {
					for _, maxResults := range []int{0, 2} {
						opts := search.Options{Semantics: sem, DistinctAnchors: distinct, MaxResults: maxResults}
						for qi, text := range queries {
							q := search.Parse(text)
							if len(q.Terms) == 0 {
								continue
							}
							parts, round, err := sc.EvalShards(context.Background(), q, opts, all, nil)
							if err != nil {
								t.Fatalf("%s %q: %v", cc.name, text, err)
							}
							name := cc.name + " " + text
							for _, p := range parts {
								for _, h := range p.Results {
									check(name, round, q, h)
								}
							}
							// Hand-made hits, once a corpus and shard count:
							// every element as an LCA, with its anchor.
							if sem != search.SemanticsSLCA || !distinct || maxResults != 0 || qi >= 2 {
								continue
							}
							for i, s := range sc.Shards() {
								eng := s.Engine(opts)
								for _, lca := range s.Doc.Nodes() {
									if !lca.IsElement() {
										continue
									}
									for a := lca; a != nil; a = a.Parent {
										if eng.Anchors(a.Ord, lca.Ord) {
											check(name+" (hand-made)", round, q, search.Hit{Shard: int32(i), Anchor: int32(a.Ord), LCA: int32(lca.Ord)})
											break
										}
									}
								}
							}
						}
					}
				}
			}
		}
	}
	t.Logf("%d hits: %d terms without a match inside the anchor, %d at the anchor, %d at the floor of 1", hits, missing, atAnchor, floorOne)
	if missing == 0 || atAnchor == 0 || floorOne == 0 {
		t.Fatalf("the fixture misses a case: %d terms without a match, %d at the anchor, %d at the floor of 1", missing, atAnchor, floorOne)
	}
}
