package core_test

import (
	"bytes"
	"fmt"
	"math"
	"slices"
	"strings"
	"sync"
	"testing"

	"extract/internal/core"
	"extract/internal/features"
	"extract/internal/gen"
	"extract/internal/ilist"
	"extract/internal/index"
	"extract/internal/persist"
	"extract/internal/search"
	"extract/internal/selector"
	"extract/internal/workload"
	"extract/xmltree"
)

var exactForTests = selector.ExactConfig{MaxInstancesPerItem: 3, MaxExpansions: 3000}

// checkAgainstOracle runs the pipeline on one result tree — all three
// selection algorithms — and holds every stage's output to the oracle's:
// the statistics by name, the dominance scores bit for bit, the IList, and
// each snippet's coverage, size and XML. The generator keeps no statistics,
// so they are folded here as it folds them (foldAsGenerator).
func checkAgainstOracle(t testing.TB, name string, c *core.Corpus, result *xmltree.Document, kws []string, bound int) {
	t.Helper()
	want := oracleCollect(result.Root, c.Cls)
	wantIL := oracleIList(result.Root, kws, c.Cls, c.Keys, want)

	query := strings.Join(kws, " ")
	got := core.NewGenerator(c).ForTree(result, query, bound)
	stats := foldAsGenerator(c, result)
	checkStats(t, name, stats, want)
	il := got.IList
	if len(il.Items) != len(wantIL.Items) {
		t.Fatalf("%s: IList %v, oracle %v", name, il.Texts(), wantIL.Texts())
	}
	for i, it := range il.Items {
		w := wantIL.Items[i]
		if it != w || math.Float64bits(it.Score) != math.Float64bits(w.Score) {
			t.Fatalf("%s: IList item %d = %+v, oracle %+v", name, i, it, w)
		}
	}
	if !slices.Equal(il.ReturnEntities, wantIL.ReturnEntities) || il.KeyAttr != wantIL.KeyAttr || il.KeyValue != wantIL.KeyValue {
		t.Fatalf("%s: return entities %v key %s=%q, oracle %v %s=%q", name,
			il.ReturnEntities, il.KeyAttr, il.KeyValue, wantIL.ReturnEntities, wantIL.KeyAttr, wantIL.KeyValue)
	}

	exact := core.NewGenerator(c)
	exact.Algorithm, exact.Exact = core.AlgExact, exactForTests
	for _, sel := range []struct {
		alg    string
		sn, ws *selector.Snippet
	}{
		{"greedy", got.Snippet, oracleGreedy(result.Root, wantIL, c.Cls, want, bound)},
		// The ratio selector is the E12 ablation's, not a generator
		// algorithm: it runs on the generator's IList and the statistics
		// folded as the generator folds them.
		{"greedy ratio", selector.GreedyRatio(result, il, stats, bound), oracleGreedyRatio(result.Root, wantIL, c.Cls, want, bound)},
		{"exact", exact.ForTree(result, query, bound).Snippet, oracleExact(result.Root, wantIL, c.Cls, want, bound, exactForTests)},
	} {
		sn, ws := sel.sn, sel.ws
		if !slices.Equal(sn.Covered, ws.Covered) || !slices.Equal(sn.Skipped, ws.Skipped) || sn.Edges != ws.Edges {
			t.Fatalf("%s: algorithm %s: covered %v skipped %v edges %d, oracle %v %v %d", name, sel.alg,
				sn.Covered, sn.Skipped, sn.Edges, ws.Covered, ws.Skipped, ws.Edges)
		}
		if g, w := xmltree.XMLString(sn.Root), xmltree.XMLString(ws.Root); g != w {
			t.Fatalf("%s: algorithm %s: snippet\n%s\noracle\n%s", name, sel.alg, g, w)
		}
		checkSnippetTree(t, name, sn.Root, result.Root)
	}

	// A view of the corpus document takes its statistics and keyword
	// instances from the corpus index; its owned twin has no index and is
	// read node by node — to the same IList and the same snippet.
	if result.IsView() {
		g := core.NewGenerator(c)
		owned := xmltree.NewDocument(xmltree.DeepCopy(result.Root))
		view, twin := g.ForTree(result, query, bound), g.ForTree(owned, query, bound)
		if v, o := indexOf(foldAsGenerator(c, result)), indexOf(foldAsGenerator(c, owned)); v != c.Index || o != nil {
			t.Fatalf("%s: the view was folded from index %p (corpus index %p), its twin from %p", name, v, c.Index, o)
		}
		if !slices.Equal(view.IList.Texts(), twin.IList.Texts()) || !slices.Equal(view.Snippet.Covered, twin.Snippet.Covered) ||
			xmltree.XMLString(view.Snippet.Root) != xmltree.XMLString(twin.Snippet.Root) {
			t.Fatalf("%s: view and owned twin snippet differently:\n%s\n%s", name, xmltree.XMLString(view.Snippet.Root), xmltree.XMLString(twin.Snippet.Root))
		}
	}
}

// foldAsGenerator folds a result tree's statistics as ForTree does: in the
// space of the corpus index when the tree is a view of its document.
func foldAsGenerator(c *core.Corpus, result *xmltree.Document) *features.Stats {
	sp, start, end := c.Index.Interval(result)
	return features.NewCollector(c.Cls).CollectIn(sp, start, end, result)
}

// indexOf returns the index of the first part of the space s was folded in,
// nil for a tree read on its own.
func indexOf(s *features.Stats) *index.Index {
	if sp, _, _ := s.Space(); sp != nil {
		return sp.Parts()[0]
	}
	return nil
}

func checkStats(t testing.TB, name string, got *features.Stats, want *oracleStats) {
	t.Helper()
	if !slices.Equal(got.Features(), want.order) {
		t.Fatalf("%s: features %v, oracle %v", name, got.Features(), want.order)
	}
	for _, f := range want.order {
		if got.N(f) != want.n[f] || got.TypeN(f.Type) != want.typeN[f.Type] || got.TypeD(f.Type) != want.typeD[f.Type] {
			t.Fatalf("%s: %v: N %d N(e,a) %d D(e,a) %d, oracle %d %d %d", name, f,
				got.N(f), got.TypeN(f.Type), got.TypeD(f.Type), want.n[f], want.typeN[f.Type], want.typeD[f.Type])
		}
		if g, w := got.Dominance(f), want.dominance(f); math.Float64bits(g) != math.Float64bits(w) {
			t.Fatalf("%s: DS(%v) = %v, oracle %v", name, f, g, w)
		}
		if !slices.Equal(got.Instances(f), want.instances[f]) {
			t.Fatalf("%s: instances of %v differ", name, f)
		}
	}
	if len(got.Types()) != len(want.typeN) {
		t.Fatalf("%s: %d types, oracle %d", name, len(got.Types()), len(want.typeN))
	}
	if !slices.Equal(got.EntityLabels(), want.entityLabels) {
		t.Fatalf("%s: entity labels %v, oracle %v", name, got.EntityLabels(), want.entityLabels)
	}
	for e, l := range want.entityLabels {
		if got.Node(got.EntityInstances(e)[0]) != want.firstEntity[l] {
			t.Fatalf("%s: first %q instance differs", name, l)
		}
	}
	if !slices.Equal(got.Dominant(), want.dominant()) {
		t.Fatalf("%s: dominant %v, oracle %v", name, got.Dominant(), want.dominant())
	}
}

// checkSnippetTree checks what XML cannot show: every snippet node is a
// copy whose Origin is the result node it shows, under the copy of that
// node's parent.
func checkSnippetTree(t testing.TB, name string, root, resultRoot *xmltree.Node) {
	t.Helper()
	if root.Origin != resultRoot || root.Parent != nil {
		t.Fatalf("%s: snippet root is not a parentless copy of the result root", name)
	}
	root.Walk(func(n *xmltree.Node) bool {
		for _, c := range n.Children {
			if c.Parent != n || c.Origin == nil || c.Origin.Parent != n.Origin {
				t.Fatalf("%s: snippet node %v is not a copy under its parent's copy", name, c)
			}
		}
		return true
	})
}

// mixedContent is a document whose text runs sit between and after element
// children, under repeated and under single elements, with a value that is
// also a label and a keyword that occurs at several depths.
func mixedContent() *xmltree.Document {
	doc, err := xmltree.ParseString(`<r>
	<p>red <c><d>red</d><e>blue</e></c> red</p>
	<p>green<c><d>blue</d>tail</c><d>red</d></p>
	<p><name>red</name>p<name>blue</name></p>
	<q kind="p">blue <b>red</b> blue</q>
</r>`)
	if err != nil {
		panic(err)
	}
	return doc
}

// TestSnippetPipelineMatchesOracle is the pipeline's property test: every
// result of generated SLCA, ELCA and XSeek queries — as the view the engine
// returns, as an owned tree finalized on its own, and as the same view on a
// corpus that went through a persist round trip — snippets, under all three
// selection algorithms, exactly as the oracle says. (The fourth form a result
// takes, rebuilt from the wire, is held to the view's snippet byte for byte
// by internal/remote's TestRouterMatchesLocal.)
func TestSnippetPipelineMatchesOracle(t *testing.T) {
	corpora := []struct {
		name string
		doc  *xmltree.Document
	}{
		{"figure1", gen.Figure1Corpus()},
		{"stores", gen.Stores(gen.StoresConfig{Retailers: 3, StoresPerRetailer: 3, ClothesPerStore: 6, Seed: 5})},
		{"auctions", gen.Auctions(gen.AuctionsConfig{People: 6, Auctions: 5, Items: 8, Seed: 6})},
		{"movies", gen.Movies(gen.MoviesConfig{Movies: 9, Seed: 7})},
		{"mixed", mixedContent()},
	}
	options := []search.Options{
		{DistinctAnchors: true},
		{DistinctAnchors: true, Semantics: search.SemanticsELCA},
		{DistinctAnchors: true, Mode: search.ModeXSeek},
	}
	results := 0
	for _, tc := range corpora {
		c := core.BuildCorpus(tc.doc)
		var image bytes.Buffer
		if err := persist.Save(&image, c); err != nil {
			t.Fatal(err)
		}
		loaded, err := persist.LoadBytes(image.Bytes())
		if err != nil {
			t.Fatal(err)
		}
		var queries []string
		for _, kw := range []int{1, 2, 3} {
			for _, q := range workload.Generate(tc.doc, workload.Config{Queries: 4, Keywords: kw, Seed: int64(10 + kw)}) {
				queries = append(queries, q.Text())
			}
		}
		for oi, opts := range options {
			for _, q := range queries {
				rs, err := c.Engine(opts).Search(search.Parse(q))
				if err != nil {
					t.Fatal(err)
				}
				kws := index.Tokenize(q)
				for ri, r := range rs {
					if r.Doc.Len() > 2000 && ri > 0 {
						continue // one large result per query keeps the oracle's walks affordable
					}
					results++
					bound := 4 + (results % 9)
					name := fmt.Sprintf("%s/opts%d/%q/result%d", tc.name, oi, q, ri)
					checkAgainstOracle(t, name, c, r.Doc, kws, bound)
					checkAgainstOracle(t, name+"/owned", c, xmltree.NewDocument(xmltree.DeepCopy(r.Root)), kws, bound)
					if r.IsView() {
						twin := loaded.Doc.Subtree(loaded.Doc.ByOrd(r.Root.Ord))
						checkAgainstOracle(t, name+"/persisted", loaded, twin, kws, bound)
					}
				}
			}
		}
	}
	if results < 100 {
		t.Fatalf("only %d results checked", results)
	}
}

// FuzzSnippetFlat: whatever document Parse accepts — mixed content, empty
// values, one-node trees, deep chains — snippets through the pipeline exactly
// as the oracle says, as a whole-document result and as a view of every child
// of the root. The query is made of the document's own first tokens, so every
// kind of IList item occurs. Seeded from the FuzzParse corpus.
func FuzzSnippetFlat(f *testing.F) {
	deep := strings.Repeat("<e>", 300) + "x y" + strings.Repeat("</e>", 300)
	for _, s := range []string{
		`<a/>`,
		`<a><b>x</b><b>y</b></a>`,
		`<a k="v"><c/></a>`,
		`<a>text <b/> tail</a>`,
		`<a xmlns:n="u"><n:b/></a>`,
		`<!DOCTYPE a [<!ELEMENT a (b*)>]><a><b/></a>`,
		`<a><![CDATA[raw <stuff>]]></a>`,
		`<a>&amp;&lt;&gt;</a>`,
		`<a`, `</a>`, `<a><b></a></b>`, ``, `plain`,
		"<a>\xff\xfe</a>",
		`<A:0/>`, `<r a:0="v"/>`, `<r xmlns:a="u"><a:1>x</a:1></r>`,
		xmltree.XMLString(mixedContent().Root),
		`<r><s><n>a b</n><c>x</c><i><n>a</n></i><i><n>b</n></i></s><s><n>a b</n><c>y</c><i><n>a</n></i></s><s><c>x</c></s></r>`,
		`<r><e n=""><e n="r"><e n=""/></e></e><e n="e">e</e></r>`,
		deep,
	} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, src string) {
		doc, err := xmltree.ParseString(src, xmltree.WithMaxNodes(2000))
		if err != nil {
			return
		}
		c := core.BuildCorpus(doc)
		var kws []string
		for _, n := range doc.Nodes() {
			index.EachToken(n.Label+" "+n.Value, func(tok string) bool {
				if !slices.Contains(kws, tok) {
					kws = append(kws, tok)
				}
				return len(kws) < 3
			})
		}
		checkAgainstOracle(t, "document", c, search.FromNode(doc, doc.Root).Doc, kws, 6)
		for i, ch := range doc.Root.Children {
			if ch.IsElement() {
				checkAgainstOracle(t, fmt.Sprintf("child %d", i), c, doc.Subtree(ch), kws, 3)
			}
		}
	})
}

// allocationResult is a store with n clothes, every one the same: the
// result grows, its distinct labels, values and features — so its IList and
// its snippet — do not. The corpus around it has a second store, so store and
// clothes classify as entities.
func allocationResult(t *testing.T, clothes int) (*core.Corpus, *search.Result) {
	t.Helper()
	store := func(name string, n int) *xmltree.Node {
		s := xmltree.Elem("store", xmltree.Attr("name", name), xmltree.Attr("city", "Houston"))
		for i := 0; i < n; i++ {
			xmltree.Append(s, xmltree.Elem("clothes", xmltree.Attr("category", "suit")))
		}
		return s
	}
	doc := xmltree.NewDocument(xmltree.Elem("stores", store("Levis", clothes), store("Esprit", 2)))
	c := core.BuildCorpus(doc)
	return c, search.FromNode(doc, doc.Root.Children[0])
}

// TestSnippetAllocations states the pipeline's cost model as a test: one
// pass over the result, then work sized by the snippet. A 10-node and a
// 10 000-node result with the same distinct content cost the same number of
// allocations end to end (ForResult) — the statistics fold into the worker's
// scratch, and everything the snippet allocates is its IList and its tree,
// which are equal — and so do the two stages that come after the pass, taken
// on their own over statistics folded as the generator folds them. The served
// path (ServeResult) runs the same pipeline; the shard package's
// TestServedSnippetMatchesInspected holds the two equal.
func TestSnippetAllocations(t *testing.T) {
	const query = "houston suit"
	kws := index.Tokenize(query)
	type measured struct{ nodes, items, snippet, ilist, selection float64 }
	measure := func(clothes int) measured {
		c, r := allocationResult(t, clothes)
		g := core.NewGenerator(c)
		out := g.ForResult(r, query, 6)
		sp, start, end := r.Space()
		stats := features.NewCollector(c.Cls).CollectIn(sp, start, end, r.Doc)
		m := measured{nodes: float64(r.Doc.Len()), items: float64(out.IList.Len())}
		m.snippet = testing.AllocsPerRun(100, func() { g.ForResult(r, query, 6) })
		m.ilist = testing.AllocsPerRun(100, func() { ilist.Build(r.Root, kws, c.Cls, c.Keys, stats) })
		m.selection = testing.AllocsPerRun(100, func() { selector.Greedy(r.Doc, out.IList, c.Cls, stats, 6) })
		return m
	}
	small, large := measure(2), measure(3331)
	if small.nodes != 11 || large.nodes != 10_000-2 {
		t.Fatalf("fixtures have %v and %v nodes", small.nodes, large.nodes)
	}
	if small.items != large.items || small.items < 5 {
		t.Fatalf("ILists of %v and %v items", small.items, large.items)
	}
	if raceDetector {
		return // the pools behind the counts are randomized; the runs above still race-check the scratch
	}
	if small.snippet != large.snippet || small.ilist != large.ilist || small.selection != large.selection {
		t.Errorf("allocations grow with the result: %+v vs %+v", small, large)
	}
	// The whole snippet measures 10: the query's tokens, the IList's, the
	// selection's (covered, skipped, the snippet's slab, child arena and
	// header) and the Generated; none for the statistics. The ceiling is that
	// and two to spare, so a stage that starts allocating per item or per
	// node shows.
	if small.snippet > 12 {
		t.Errorf("a snippet costs %v allocations", small.snippet)
	}
}

// One Generator serves every goroutine of a snippet fan-out: its pooled
// collectors, and the selector's pooled scratch, must hand each goroutine
// state no other is using. Snippets generated concurrently, large results
// and small interleaved, equal the ones generated alone.
func TestGeneratorConcurrentUse(t *testing.T) {
	doc := gen.Stores(gen.StoresConfig{Retailers: 3, StoresPerRetailer: 3, ClothesPerStore: 6, Seed: 5})
	c := core.BuildCorpus(doc)
	var results []*xmltree.Document
	for _, n := range doc.Nodes() {
		if n.IsElement() && c.Cls.IsEntity(n) {
			results = append(results, doc.Subtree(n))
		}
	}
	results = append(results, doc.Subtree(doc.Root))
	const query = "texas store suit"
	g := core.NewGenerator(c)
	want := make([]string, len(results))
	for i, r := range results {
		want[i] = xmltree.XMLString(g.ForTree(r, query, 8).Snippet.Root)
	}
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for k := range results {
				i := (k*7 + w*13) % len(results)
				if got := xmltree.XMLString(g.ForTree(results[i], query, 8).Snippet.Root); got != want[i] {
					t.Errorf("worker %d: result %d snippet\n%s\nalone\n%s", w, i, got, want[i])
					return
				}
			}
		}(w)
	}
	wg.Wait()
}
