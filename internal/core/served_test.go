package core_test

import (
	"testing"

	"extract/internal/core"
	"extract/internal/gen"
	"extract/internal/index"
	"extract/internal/search"
)

// TestServedSnippetAllocations: the served path (ServeResult) derives the
// statistics, the IList and the selection in pooled scratch, renders the XML
// from the selection through pooled scratch nodes, writes no record and keeps
// nothing else — so a served snippet costs two objects (its rendered XML and
// the served snippet with its source) at bounds 4 and 20, over results whose
// ILists differ more than fivefold in length: nothing per IList item and
// nothing per snippet node.
func TestServedSnippetAllocations(t *testing.T) {
	if raceDetector {
		t.Skip("the race detector's own allocations make counts inexact")
	}
	doc := gen.Stores(gen.StoresConfig{Retailers: 4, StoresPerRetailer: 4, ClothesPerStore: 6, Seed: 7})
	c := core.BuildCorpus(doc)
	g := core.NewGenerator(c)
	queries := []string{"clothes", "store", "retailer", "store city", doc.Root.Label}
	var rs []*search.Result
	for _, q := range queries {
		got, err := c.Engine(search.Options{DistinctAnchors: true}).Search(search.Parse(q))
		if err != nil || len(got) == 0 {
			t.Fatalf("%q: %d results, %v", q, len(got), err)
		}
		rs = append(rs, got[0])
	}
	counts := map[float64]bool{}
	minItems, maxItems, minEdges, maxEdges := -1, 0, -1, 0
	for i, r := range rs {
		kws := index.Tokenize(queries[i])
		for _, bound := range []int{4, 20} {
			d := g.ServeResult(r, kws, bound).Derived()
			items, edges := len(d.IList.Items), d.Snippet.Edges
			allocs := testing.AllocsPerRun(50, func() { g.ServeResult(r, kws, bound) })
			t.Logf("result %d (%d nodes) bound %d: %d IList items, %d edges, %v objects", i, r.Size()+1, bound, items, edges, allocs)
			counts[allocs] = true
			if minItems < 0 || items < minItems {
				minItems = items
			}
			if minEdges < 0 || edges < minEdges {
				minEdges = edges
			}
			maxItems, maxEdges = max(maxItems, items), max(maxEdges, edges)
		}
	}
	if maxItems < 5*minItems || maxEdges < 2*minEdges {
		t.Fatalf("IList items %d-%d, edges %d-%d: the fixture does not vary what a snippet holds", minItems, maxItems, minEdges, maxEdges)
	}
	if len(counts) != 1 {
		t.Fatalf("objects per served snippet differ by result or bound: %v", counts)
	}
	for n := range counts {
		if n > 2 {
			t.Fatalf("a served snippet costs %v objects, want at most 2", n)
		}
	}
}
