package selector

import (
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"
	"testing/quick"

	"extract/internal/classify"
	"extract/internal/features"
	"extract/internal/gen"
	"extract/internal/ilist"
	"extract/internal/index"
	"extract/internal/keys"
	"extract/xmltree"
)

type fixture struct {
	doc   *xmltree.Document
	il    *ilist.IList
	cls   *classify.Classification
	stats *features.Stats
}

func figure1(t *testing.T) *fixture {
	t.Helper()
	corpus := gen.Figure1Corpus()
	cls := classify.Classify(corpus)
	km := keys.Mine(corpus, cls)
	result := gen.Figure1Result()
	stats := features.Collect(result.Root, cls)
	il := ilist.Build(result.Root, index.Tokenize(gen.Figure1Query), cls, km, stats)
	return &fixture{doc: result, il: il, cls: cls, stats: stats}
}

// countElements returns element count and whether every non-root node has
// its parent in the tree (connectivity).
func countElements(root *xmltree.Node) (int, bool) {
	n, ok := 0, true
	root.Walk(func(m *xmltree.Node) bool {
		if m.IsElement() {
			n++
		}
		if m != root && m.Parent == nil {
			ok = false
		}
		return true
	})
	return n, ok
}

func TestGreedyFigure2(t *testing.T) {
	fx := figure1(t)
	// Bound 13 accommodates a Figure 2-shaped snippet (14 elements).
	s := Greedy(fx.doc, fx.il, fx.cls, fx.stats, 13)

	if s.Edges > 13 {
		t.Fatalf("edges = %d > bound", s.Edges)
	}
	elems, connected := countElements(s.Root)
	if !connected {
		t.Fatal("snippet disconnected")
	}
	if elems-1 != s.Edges {
		t.Errorf("edge accounting: %d elements but Edges=%d", elems, s.Edges)
	}
	if s.Root.Label != "retailer" {
		t.Errorf("snippet root = %s", s.Root.Label)
	}

	// Figure 2 content: the snippet surfaces the retailer key, the Texas
	// store in Houston, and clothes with the dominant features.
	text := xmltree.RenderInline(s.Root)
	for _, want := range []string{"Brook Brothers", "Texas", "Houston", "clothes", "apparel"} {
		if !strings.Contains(text, want) {
			t.Errorf("snippet missing %q:\n%s", want, text)
		}
	}

	// At least 10 of the 12 IList items fit within 13 edges.
	if len(s.Covered) < 10 {
		t.Errorf("covered %d items: %v", len(s.Covered), s.Covered)
	}
	for _, idx := range s.Covered {
		if idx < 0 || idx >= fx.il.Len() {
			t.Errorf("bad covered index %d", idx)
		}
	}
}

func TestGreedyFullCoverage(t *testing.T) {
	fx := figure1(t)
	s := Greedy(fx.doc, fx.il, fx.cls, fx.stats, 50)
	if len(s.Skipped) != 0 {
		var items []string
		for _, i := range s.Skipped {
			items = append(items, fx.il.Items[i].Text)
		}
		t.Errorf("skipped with generous bound: %v", items)
	}
}

func TestGreedyRespectsTinyBounds(t *testing.T) {
	fx := figure1(t)
	for bound := 0; bound <= 6; bound++ {
		s := Greedy(fx.doc, fx.il, fx.cls, fx.stats, bound)
		if s.Edges > bound {
			t.Errorf("bound %d: edges = %d", bound, s.Edges)
		}
		// The root alone covers "retailer" (keyword) even at bound 0.
		if bound == 0 && len(s.Covered) == 0 {
			t.Error("bound 0 should still cover the root label keyword")
		}
	}
}

func TestGreedyCoverageMonotonicInBound(t *testing.T) {
	fx := figure1(t)
	prev := -1
	for bound := 0; bound <= 20; bound += 2 {
		s := Greedy(fx.doc, fx.il, fx.cls, fx.stats, bound)
		if len(s.Covered) < prev {
			t.Errorf("coverage dropped at bound %d", bound)
		}
		prev = len(s.Covered)
	}
}

func TestGreedyClustersInstances(t *testing.T) {
	// The paper's locality argument (§2.4): instances are chosen close to
	// the existing tree. After covering Texas via some store, Houston
	// should reuse that store when possible, i.e. the snippet contains
	// exactly one store at moderate bounds.
	fx := figure1(t)
	s := Greedy(fx.doc, fx.il, fx.cls, fx.stats, 10)
	stores := 0
	s.Root.Walk(func(n *xmltree.Node) bool {
		if n.IsElement() && n.Label == "store" {
			stores++
		}
		return true
	})
	if stores != 1 {
		t.Errorf("snippet uses %d stores, want 1:\n%s", stores, xmltree.RenderASCII(s.Root))
	}
	// And that store must be a Houston store (covers city cheaply).
	if !strings.Contains(xmltree.RenderInline(s.Root), "Houston") {
		t.Errorf("snippet store is not the Houston one:\n%s", xmltree.RenderInline(s.Root))
	}
}

func TestCoveredItemsWitnessed(t *testing.T) {
	// Every covered item must actually be witnessed by the snippet tree.
	fx := figure1(t)
	for _, bound := range []int{3, 6, 9, 13, 30} {
		s := Greedy(fx.doc, fx.il, fx.cls, fx.stats, bound)
		seen := Witnesses(s.Root, fx.il, fx.cls)
		for _, idx := range s.Covered {
			if !seen[idx] {
				t.Errorf("bound %d: item %d (%s) claimed covered but absent",
					bound, idx, fx.il.Items[idx].Text)
			}
		}
	}
}

func smallFixture(seed int64) *fixture {
	r := rand.New(rand.NewSource(seed))
	cities := []string{"Houston", "Austin", "Dallas"}
	cats := []string{"suit", "outwear", "jeans"}
	root := xmltree.Elem("retailer",
		xmltree.Attr("name", "Acme"),
		xmltree.Attr("product", "apparel"),
	)
	for i := 0; i < 2+r.Intn(2); i++ {
		m := xmltree.Elem("merchandises")
		for j := 0; j < 1+r.Intn(3); j++ {
			xmltree.Append(m, xmltree.Elem("clothes",
				xmltree.Attr("category", cats[r.Intn(len(cats))]),
			))
		}
		xmltree.Append(root, xmltree.Elem("store",
			xmltree.Attr("state", "Texas"),
			xmltree.Attr("city", cities[r.Intn(len(cities))]),
			m,
		))
	}
	// A corpus wrapper with a sibling retailer so labels classify as in
	// the real pipeline.
	corpus := xmltree.NewDocument(xmltree.Elem("retailers",
		root,
		xmltree.Elem("retailer", xmltree.Attr("name", "Other"), xmltree.Attr("product", "apparel")),
	))
	cls := classify.Classify(corpus)
	km := keys.Mine(corpus, cls)
	result := xmltree.NewDocument(xmltree.DeepCopy(root))
	stats := features.Collect(result.Root, cls)
	il := ilist.Build(result.Root, []string{"texas", "apparel", "retailer"}, cls, km, stats)
	return &fixture{doc: result, il: il, cls: cls, stats: stats}
}

func TestExactAtLeastGreedy(t *testing.T) {
	for seed := int64(0); seed < 25; seed++ {
		fx := smallFixture(seed)
		for _, bound := range []int{2, 4, 6, 8} {
			g := Greedy(fx.doc, fx.il, fx.cls, fx.stats, bound)
			e := Exact(fx.doc, fx.il, fx.stats, bound, ExactConfig{})
			if e.Edges > bound {
				t.Errorf("seed %d bound %d: exact edges %d", seed, bound, e.Edges)
			}
			if len(e.Covered) < len(g.Covered) {
				t.Errorf("seed %d bound %d: exact %d < greedy %d",
					seed, bound, len(e.Covered), len(g.Covered))
			}
		}
	}
}

func TestExactFigure1SmallBound(t *testing.T) {
	fx := figure1(t)
	// Cap instances to keep branching tractable on the 7k-node result.
	e := Exact(fx.doc, fx.il, fx.stats, 6, ExactConfig{MaxInstancesPerItem: 3, MaxExpansions: 200000})
	g := Greedy(fx.doc, fx.il, fx.cls, fx.stats, 6)
	if len(e.Covered) < len(g.Covered) {
		t.Errorf("exact %d < greedy %d at bound 6", len(e.Covered), len(g.Covered))
	}
}

// Property: for random small results and random bounds the snippet obeys
// the bound, is connected, and edge accounting matches the materialized
// tree.
func TestGreedyProperties(t *testing.T) {
	check := func(seed int64) bool {
		fx := smallFixture(seed)
		r := rand.New(rand.NewSource(seed ^ 0x5eed))
		bound := r.Intn(12)
		s := Greedy(fx.doc, fx.il, fx.cls, fx.stats, bound)
		if s.Edges > bound {
			return false
		}
		elems, connected := countElements(s.Root)
		if !connected || elems-1 != s.Edges {
			return false
		}
		// Covered ∪ Skipped partitions the IList.
		if len(s.Covered)+len(s.Skipped) != fx.il.Len() {
			return false
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 150}); err != nil {
		t.Error(err)
	}
}

func TestGreedyEmptyIList(t *testing.T) {
	fx := figure1(t)
	empty := &ilist.IList{}
	s := Greedy(fx.doc, empty, fx.cls, fx.stats, 5)
	if s.Edges != 0 || len(s.Covered) != 0 {
		t.Errorf("empty IList snippet = %+v", s)
	}
	if s.Root == nil || s.Root.Label != "retailer" {
		t.Errorf("snippet root = %v", s.Root)
	}
}

// keywordInstances readies a selection for one result and returns every
// keyword's instances, by keyword, as the finder named by the statistics
// finds them whatever the result's size: postedKeywords when the result is
// an interval of a space, scanKeywords when it is a tree that has no index.
func keywordInstances(doc *xmltree.Document, il *ilist.IList, stats *features.Stats) map[string][]int32 {
	s := begin(doc, il, stats)
	defer s.release()
	for k := range s.kwInst {
		s.kwInst[k] = s.kwInst[k][:0]
	}
	if s.space != nil {
		s.postedKeywords()
	} else if len(s.kwIndex) > 0 {
		s.scanKeywords()
	}
	out := map[string][]int32{}
	for text, k := range s.kwIndex {
		out[text] = append([]int32{}, s.kwInst[k]...)
	}
	return out
}

// cut returns the whole document of doc cut into n shards as the shard
// package cuts one: the root's children in contiguous blocks, copies of them
// each under a copy of the root, each shard indexed on its own. A block holds
// one child at least, so a root of fewer children makes fewer shards.
func cut(doc *xmltree.Document, n int) *index.Whole {
	kids := doc.Root.Children
	n = min(n, len(kids))
	parts := make([]*index.Index, n)
	for b := range parts {
		root := &xmltree.Node{Kind: xmltree.KindElement, Label: doc.Root.Label, FromAttr: doc.Root.FromAttr}
		for _, c := range kids[b*len(kids)/n : (b+1)*len(kids)/n] {
			xmltree.Append(root, xmltree.DeepCopy(c))
		}
		parts[b] = index.Build(xmltree.NewDocument(root))
	}
	return index.NewWhole(parts)
}

// TestKeywordInstancesFromPostings: a view of an indexed document takes its
// keyword instances from the posting runs inside the result, an index-less
// tree from a scan of its nodes — the same positions in the same order, for
// every element of the document as the result root. So does the whole
// document cut into 3 and 4 shards, from every shard's postings in global
// positions, against a scan of the unsharded document's root. The queries
// are the cases the two could differ on: the members of a quoted phrase
// (tokens the query never evaluated as terms of their own), a repeated
// token, a token that is an element's label and also in its value, tokens in
// mixed content, in several text children of one element and in text
// children of the root, a token no node holds, and strings that are not
// tokens at all.
func TestKeywordInstancesFromPostings(t *testing.T) {
	mixed, err := xmltree.ParseString(`<r>
	<p>red <c><d>red</d><e>blue</e></c> red</p>
	<p>green<c><d>blue</d>tail</c><d>red</d></p>
	<red>red blue <b>red</b> Red RED</red>
	<q kind="p red">blue <b>red</b> blue</q>
</r>`)
	if err != nil {
		t.Fatal(err)
	}
	rooted, err := xmltree.ParseString(`<r>red <p>blue</p> tail <red>red</red> blue red <q>tail</q></r>`)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		doc     *xmltree.Document
		queries []string
	}{
		{mixed, []string{`red`, `"red blue" tail`, `red red blue`, `p kind red`, `absent red`, `b d e c`}},
		{rooted, []string{`red`, `blue tail`, `r red`}},
		{gen.Figure1Corpus(), []string{gen.Figure1Query, `"brook brothers" houston`, `store store city`, `name retailer`}},
		{gen.Stores(gen.StoresConfig{Retailers: 2, StoresPerRetailer: 2, ClothesPerStore: 3, Seed: 5}), []string{`store texas`, `clothes category suit`}},
	} {
		cls, ix := classify.Classify(tc.doc), index.Build(tc.doc)
		km := keys.Mine(tc.doc, cls)
		// Two collectors: each folds into its own scratch, which the next
		// fold on it reuses.
		col, scan := features.NewCollector(cls), features.NewCollector(cls)
		wholes := []*index.Whole{cut(tc.doc, 3), cut(tc.doc, 4)}
		for _, q := range tc.queries {
			kwSets := [][]string{index.Tokenize(q), {"Red", "red blue", ""}}
			for _, kws := range kwSets {
				same := func(name string, view *xmltree.Document, posted, scanned *features.Stats) {
					t.Helper()
					ilPosted := ilist.Build(nil, kws, cls, km, posted)
					ilScanned := ilist.Build(nil, kws, cls, km, scanned)
					got, want := keywordInstances(view, ilPosted, posted), keywordInstances(view, ilScanned, scanned)
					if len(got) != len(want) {
						t.Fatalf("%q under %s: keywords %v from postings, %v from the scan", kws, name, got, want)
					}
					for text, want := range want {
						if got := got[text]; !slices.Equal(got, want) {
							t.Fatalf("%q under %s: instances of %q are %v from postings, %v from the scan", kws, name, text, got, want)
						}
					}
					a, b := Greedy(view, ilPosted, cls, posted, 5), Greedy(view, ilScanned, cls, scanned, 5)
					if xmltree.XMLString(a.Root) != xmltree.XMLString(b.Root) || !slices.Equal(a.Covered, b.Covered) {
						t.Fatalf("%q under %s: snippets differ:\n%s\n%s", kws, name, xmltree.XMLString(a.Root), xmltree.XMLString(b.Root))
					}
				}
				for _, n := range tc.doc.Nodes() {
					if !n.IsElement() {
						continue
					}
					view := tc.doc.Subtree(n)
					w, start, end := ix.Interval(view)
					indexed, scanned := col.CollectIn(w, start, end, view), scan.CollectIn(nil, 0, 0, view)
					if w == nil || w.Parts()[0] != ix {
						t.Fatalf("%v: fixtures are not one indexed and one index-less", n)
					}
					same(n.Label, view, indexed, scanned)
				}
				for _, w := range wholes {
					whole := col.CollectIn(w, 0, int32(w.Len()-1), nil)
					same(fmt.Sprintf("the root of %d shards", len(w.Parts())), tc.doc, whole, scan.CollectIn(nil, 0, 0, tc.doc))
				}
			}
		}
	}
}
