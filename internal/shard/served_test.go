package shard

import (
	"fmt"
	"math"
	"strings"
	"sync"
	"testing"

	"extract/internal/core"
	"extract/internal/gen"
	"extract/internal/index"
	"extract/internal/search"
	"extract/internal/workload"
	"extract/xmltree"
)

// describeSnippet renders everything a served snippet hands out, byte for
// byte: every IList item (kind, text, feature, feature id, score bits), the
// return entities, the key, the covered and skipped items, the edges and the
// snippet tree's XML.
func describeSnippet(g *core.Generated) string {
	var b strings.Builder
	for _, it := range g.IList.Items {
		fmt.Fprintf(&b, "%d %q %q %q %q %d %x\n", it.Kind, it.Text, it.Feature.Entity, it.Feature.Attr,
			it.Feature.Value, it.FeatureID, math.Float64bits(it.Score))
	}
	fmt.Fprintf(&b, "return %q key %q=%q\n", g.IList.ReturnEntities, g.IList.KeyAttr, g.IList.KeyValue)
	fmt.Fprintf(&b, "covered %v skipped %v edges %d bound %d keywords %q\n",
		g.Snippet.Covered, g.Snippet.Skipped, g.Snippet.Edges, g.Bound, g.Keywords)
	b.WriteString(xmltree.XMLString(g.Snippet.Root))
	return b.String()
}

// servedFixture is a result set of every kind a generator serves: views
// (SLCA and ELCA), ModeXSeek projections, the whole document, and owned
// copies of views, which have no index and are read node by node.
func servedFixture(t *testing.T) (sc *Corpus, rs []*search.Result, kws [][]string, copies int) {
	t.Helper()
	doc := gen.Stores(gen.StoresConfig{Retailers: 4, StoresPerRetailer: 3, ClothesPerStore: 5, Seed: 11})
	sc = Build(doc, 3)
	queries := []string{"store texas", doc.Root.Label}
	for _, q := range workload.Generate(doc, workload.Config{Queries: 6, Keywords: 2, Seed: 17}) {
		queries = append(queries, q.Text())
	}
	for _, opts := range []search.Options{
		{DistinctAnchors: true},
		{DistinctAnchors: true, Semantics: search.SemanticsELCA},
		{DistinctAnchors: true, Mode: search.ModeXSeek},
		{DistinctAnchors: true, Semantics: search.SemanticsELCA, Mode: search.ModeXSeek},
	} {
		for _, q := range queries {
			got, err := sc.Search(q, opts)
			if err != nil {
				t.Fatal(err)
			}
			for _, r := range got {
				rs = append(rs, r)
				kws = append(kws, index.Tokenize(q))
				if r.IsView() && r.Size() < 400 {
					owned := xmltree.NewDocument(xmltree.DeepCopy(r.Root))
					rs = append(rs, search.FromNode(owned, owned.Root))
					kws = append(kws, index.Tokenize(q))
					copies++
				}
			}
		}
	}
	return sc, rs, kws, copies
}

// TestServedSnippetMatchesInspected: the served entry point
// (core.Generator.ServeResult), which keeps only the XML, edges and key it
// derived in per-worker scratch, hands out exactly what ForResult, which
// keeps the snippet tree and the IList, does — once Derived has made them
// again — and nothing that aliases the scratch: every served snippet reads
// the same after 100 more snippets have reused it on the same goroutine, and
// snippets served from several goroutines at once (raced under -race) equal
// the inspected ones.
func TestServedSnippetMatchesInspected(t *testing.T) {
	sc, rs, kws, copies := servedFixture(t)
	g := sc.Generator()
	const bound = 6
	want := make([]string, len(rs))
	served := make([]*core.Generated, len(rs))
	views, projections := 0, 0
	for i, r := range rs {
		inspected := g.ForResult(r, strings.Join(kws[i], " "), bound)
		want[i] = describeSnippet(inspected)
		served[i] = g.ServeResult(r, kws[i], bound)
		if got := describeSnippet(served[i].Derived()); got != want[i] {
			t.Fatalf("result %d: served\n%s\ninspected\n%s", i, got, want[i])
		}
		if r.Index != nil {
			views++
		} else if !r.IsView() {
			projections++
		}
	}
	if len(rs) < 100 || views == 0 || copies == 0 || projections == 0 {
		t.Fatalf("%d results: %d views, %d owned copies, %d projections", len(rs), views, copies, projections)
	}

	for k := 0; k < 100; k++ {
		i := (k * 31) % len(rs)
		g.ServeResult(rs[i], kws[i], bound)
	}
	for i, sn := range served {
		if got := describeSnippet(sn.Derived()); got != want[i] {
			t.Fatalf("served snippet %d changed as later snippets reused the scratch:\n%s\nwant\n%s", i, got, want[i])
		}
	}

	var wg sync.WaitGroup
	errs := make(chan string, 4)
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for k := range rs {
				i := (k*7 + w*13) % len(rs)
				if got := describeSnippet(g.ServeResult(rs[i], kws[i], bound).Derived()); got != want[i] {
					errs <- fmt.Sprintf("goroutine %d, result %d:\n%s\nwant\n%s", w, i, got, want[i])
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Fatal(e)
	}
}
