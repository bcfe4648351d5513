package shard

import (
	"context"
	"slices"
	"testing"

	"extract/internal/gen"
	"extract/internal/search"
	"extract/internal/workload"
	"extract/xmltree"
)

// matchDepthByDefinition is search.Result.MatchDepth as it is defined, with
// nothing pruned: every match climbs to its root. The depth is read only
// when the keyword has a match. For a whole-document
// result, the least depth of any match; for any other, the least of
// max(depth(match) - depth(anchor), 0).
func matchDepthByDefinition(r *search.Result, kw string) (int, bool) {
	best := -1
	if view, _ := r.Whole(); view != nil {
		for _, p := range r.WholeMatches(kw) {
			if d := view.Node(p).Depth(); best < 0 || d < best {
				best = d
			}
		}
		return best, best >= 0
	}
	for _, m := range r.Matches(kw) {
		if d := max(m.Depth()-r.Anchor.Depth(), 0); best < 0 || d < best {
			best = d
		}
	}
	return best, best >= 0
}

// TestMatchDepthMatchesDefinition: MatchDepth, which stops climbing at the
// anchor, at the least depth found so far and at its floor (0, or 1 for a
// view whose matches all lie strictly inside the anchor), answers what the
// unpruned definition does — on gen corpora at 1 to 4 shards, under SLCA and
// ELCA, for views, ModeXSeek projections and whole-document results, for
// every term of the query and for a term that is not one — and for a result
// whose anchor is a copy of its node, as a shard server ships it. The matrix
// holds both edges of the floor: views whose first match is the anchor, and
// views whose one depth-1 match comes last in a longer run.
func TestMatchDepthMatchesDefinition(t *testing.T) {
	corpora := []*xmltree.Document{
		gen.Stores(gen.StoresConfig{Retailers: 4, StoresPerRetailer: 3, ClothesPerStore: 5, Seed: 11}),
		gen.Auctions(gen.AuctionsConfig{Seed: 3}),
		gen.Movies(gen.MoviesConfig{Movies: 12, Seed: 5}),
		// An item whose deepest "red" comes first and whose one depth-1
		// "red" — an element so labeled — comes last.
		xmltree.NewDocument(xmltree.Elem("shop",
			xmltree.Elem("item", xmltree.Elem("spec", xmltree.Elem("note", xmltree.Txt("red wool"))), xmltree.Elem("red", xmltree.Txt("yes"))),
			xmltree.Elem("item", xmltree.Elem("spec", xmltree.Elem("note", xmltree.Txt("blue cotton")))),
			xmltree.Elem("item", xmltree.Elem("color", xmltree.Txt("red"))))),
	}
	ctx := context.Background()
	var views, projections, wholes, nonZero, anchorFirst, floorLast int
	for _, doc := range corpora {
		queries := []string{doc.Root.Label, doc.Root.Label + " " + doc.Root.Children[0].Label, "red"}
		for _, q := range workload.Generate(doc, workload.Config{Queries: 8, Keywords: 2, Seed: 17}) {
			queries = append(queries, q.Text())
		}
		for _, q := range workload.Generate(doc, workload.Config{Queries: 4, Keywords: 3, Seed: 29}) {
			queries = append(queries, q.Text())
		}
		for _, n := range []int{1, 2, 4} {
			sc := Build(doc, n)
			for _, opts := range []search.Options{
				{DistinctAnchors: true},
				{DistinctAnchors: true, Semantics: search.SemanticsELCA},
				{DistinctAnchors: true, Mode: search.ModeXSeek},
				{Semantics: search.SemanticsELCA, Mode: search.ModeXSeek},
			} {
				for _, q := range queries {
					rs, err := sc.SearchEnginesContext(ctx, q, opts, nil, nil)
					if err != nil {
						t.Fatalf("%q: %v", q, err)
					}
					terms := append(search.Parse(q).Keys, "zzznosuchterm")
					for i, r := range rs {
						readdressed := r
						if view, _ := r.Whole(); view != nil {
							wholes++
						} else {
							if r.IsView() {
								views++
							} else {
								projections++
							}
							// A shard server ships a result re-addressed:
							// its anchor a copy of the node with another Ord.
							cp, anchor := *r, *r.Anchor
							anchor.Ord += 1000
							cp.Anchor = &anchor
							readdressed = &cp
						}
						for _, kw := range terms {
							want, wok := matchDepthByDefinition(r, kw)
							for _, r := range []*search.Result{r, readdressed} {
								got, gok := r.MatchDepth(kw)
								if gok != wok || gok && got != want {
									t.Fatalf("%d shards, %+v, %q, result %d, %q: depth %d %v, want %d %v", n, opts, q, i, kw, got, gok, want, wok)
								}
							}
							if want > 0 {
								nonZero++
							}
							if ms := r.Matches(kw); r.IsView() && len(ms) > 0 {
								anchorFirst += boolInt(ms[0].Start == r.Anchor.Start)
								last := ms[len(ms)-1]
								floorLast += boolInt(want == 1 && len(ms) > 1 && last.Depth()-r.Anchor.Depth() == 1 &&
									!slices.ContainsFunc(ms[:len(ms)-1], func(m *xmltree.Node) bool { return m.Depth()-r.Anchor.Depth() <= 1 }))
							}
						}
					}
				}
			}
		}
	}
	if views == 0 || projections == 0 || wholes == 0 || nonZero == 0 || anchorFirst == 0 || floorLast == 0 {
		t.Fatalf("%d views, %d projections, %d whole-document results, %d non-zero depths, %d views matched at the anchor first, %d at depth 1 only last",
			views, projections, wholes, nonZero, anchorFirst, floorLast)
	}
}

func boolInt(b bool) int {
	if b {
		return 1
	}
	return 0
}
