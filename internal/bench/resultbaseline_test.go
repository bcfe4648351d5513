package bench

import (
	"reflect"
	"strings"
	"testing"

	"extract/internal/index"
	"extract/internal/search"
	"extract/xmltree"
)

// The frozen copy construction and the engine's views must describe the same
// results — same anchors, LCAs, trees and matches — or result_before_ns
// and result_after_ns time different work.
func TestResultsBaselineMatchesViews(t *testing.T) {
	doc := storesCorpusOfSize(2_000, 3)
	ix := index.Build(doc)
	queries := searchPerfQueries(doc, ix)
	if len(queries) == 0 {
		t.Fatal("no queries")
	}
	for _, sem := range []search.Semantics{search.SemanticsSLCA, search.SemanticsELCA} {
		eng := search.NewEngine(doc, ix, nil, search.Options{DistinctAnchors: true, Semantics: sem})
		for _, kws := range queries {
			ev, err := eng.Evaluate(strings.Join(kws, " "))
			if err != nil {
				t.Fatal(err)
			}
			want := resultsBaseline(ev, eng.Classification())
			got := eng.Results(ev, ev.LCAs)
			if len(got) != len(want) || len(got) == 0 {
				t.Fatalf("%v: %d views, %d copies", kws, len(got), len(want))
			}
			for i, g := range got {
				w := want[i]
				if g.Anchor != w.Anchor || g.LCA != w.LCA || g.Size() != w.Size() ||
					xmltree.XMLString(g.Root) != xmltree.XMLString(w.Root) ||
					!reflect.DeepEqual(g.Matches, w.Matches) {
					t.Fatalf("%v: result %d differs: view of %v, copy of %v", kws, i, g.Anchor, w.Anchor)
				}
			}
		}
	}
}
