package features

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"extract/internal/classify"
	"extract/internal/gen"
	"extract/internal/index"
	"extract/xmltree"
)

// foldsAgree takes every element of doc as a result root and holds the three
// ways its statistics can be gathered to the oracle's, on the complete
// observable surface (statsEqual: ids, counts, Dominant, EntityAttrs,
// HighestEntities, every instance list): the fold over the run of the
// index's columns (an index made by Build, and one restored by FromParts
// that derives its columns on first use), the fold over columns filled into
// the collector's scratch from the view, and the same on the result's owned
// twin. One Collector makes them all, so every path runs on scratch the
// others left behind.
func foldsAgree(t testing.TB, name string, doc *xmltree.Document, cls *classify.Classification) {
	t.Helper()
	built := index.Build(doc)
	restored := index.FromParts(doc, nil)
	c := NewCollector(cls)
	for _, n := range doc.Nodes() {
		if !n.IsElement() {
			continue
		}
		name := fmt.Sprintf("%s/%v", name, n)
		want := bruteCollect(n, cls)
		view := doc.Subtree(n)
		for _, ix := range []*index.Index{built, restored} {
			got := c.CollectResult(ix, view)
			if got.Index() != ix {
				t.Fatalf("%s: a view of the indexed document was not folded from its index", name)
			}
			statsEqual(t, name+"/indexed", got, want)
		}
		got := c.CollectResult(nil, view)
		if got.Index() != nil {
			t.Fatalf("%s: statistics folded from scratch name an index", name)
		}
		statsEqual(t, name+"/scratch", got, want)

		twin := xmltree.NewDocument(xmltree.DeepCopy(n))
		got = c.CollectResult(built, twin) // a handle that is not this tree's is no handle
		if got.Index() != nil {
			t.Fatalf("%s: an owned tree was folded from another document's index", name)
		}
		statsEqual(t, name+"/owned", got, bruteCollect(twin.Root, cls))
	}
}

// randomDocument draws a tree over a small vocabulary, so labels repeat at
// every depth, values repeat across labels, and some elements hold mixed
// content, several text children or none.
func randomDocument(rng *rand.Rand, elements int) *xmltree.Document {
	labels := []string{"a", "b", "c", "d", "e", "f"}
	values := []string{"x", "y", "z", "x y", ""}
	nodes := []*xmltree.Node{xmltree.Elem(labels[rng.Intn(len(labels))])}
	for len(nodes) < elements {
		parent := nodes[rng.Intn(len(nodes))]
		switch rng.Intn(4) {
		case 0:
			xmltree.Append(parent, xmltree.Txt(values[rng.Intn(len(values))]))
		default:
			n := xmltree.Elem(labels[rng.Intn(len(labels))])
			if rng.Intn(2) == 0 {
				xmltree.Append(n, xmltree.Txt(values[rng.Intn(len(values))]))
			}
			xmltree.Append(parent, n)
			nodes = append(nodes, n)
		}
	}
	return xmltree.NewDocument(nodes[0])
}

// randomClassification assigns every label of the vocabulary a category at
// random — whatever the data would have inferred — so the root may be an
// attribute, entities nest, and attribute labels sit under several owners.
func randomClassification(rng *rand.Rand) *classify.Classification {
	cats := map[string]classify.Category{}
	for _, l := range []string{"a", "b", "c", "d", "e", "f"} {
		cats[l] = []classify.Category{classify.Entity, classify.Attribute, classify.Connection}[rng.Intn(3)]
	}
	return classify.FromCategories(cats)
}

func TestFoldsAgreeOnRandomDocuments(t *testing.T) {
	rng := rand.New(rand.NewSource(28))
	for i := 0; i < 60; i++ {
		doc := randomDocument(rng, 2+rng.Intn(60))
		foldsAgree(t, fmt.Sprintf("random%d", i), doc, randomClassification(rng))
	}
}

func TestFoldsAgreeOnGeneratedDocuments(t *testing.T) {
	mixed, err := xmltree.ParseString(`<r>
	<p>red <c><d>red</d><e>blue</e></c> red</p>
	<p>green<c><d>blue</d>tail</c><d>red</d></p>
	<p><name>red</name>p<name>blue</name></p>
	<q kind="p">blue <b>red</b> blue</q>
</r>`)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		doc  *xmltree.Document
	}{
		{"figure1", gen.Figure1Corpus()},
		{"stores", gen.Stores(gen.StoresConfig{Retailers: 3, StoresPerRetailer: 3, ClothesPerStore: 4, Seed: 5})},
		{"auctions", gen.Auctions(gen.AuctionsConfig{People: 5, Auctions: 4, Items: 6, Seed: 6})},
		{"movies", gen.Movies(gen.MoviesConfig{Movies: 7, Seed: 7})},
		{"mixed", mixed},
	} {
		foldsAgree(t, tc.name, tc.doc, classify.Classify(tc.doc))
	}
}

// The shapes the fold can get wrong by construction, each with the
// classification that makes it that shape.
func TestFoldShapes(t *testing.T) {
	const E, A, C = classify.Entity, classify.Attribute, classify.Connection
	for _, tc := range []struct {
		name, xml string
		cats      map[string]classify.Category
	}{
		{"root is an attribute", `<name>Levis</name>`,
			map[string]classify.Category{"name": A}},
		{"root is an attribute with attribute children", `<name><first>a</first><last>b</last></name>`,
			map[string]classify.Category{"name": A, "first": A, "last": A}},
		{"root below its nearest entity", `<store><contact><city>Houston</city><phone>1</phone></contact><contact><city>Austin</city></contact></store>`,
			map[string]classify.Category{"store": E, "contact": C, "city": A, "phone": A}},
		{"nested entities", `<a><n>1</n><a><n>2</n><a><n>1</n></a><n>3</n></a><n>4</n><b><a><n>1</n></a></b></a>`,
			map[string]classify.Category{"a": E, "b": E, "n": A}},
		{"an attribute between an entity and its attributes", `<s><addr><city>x</city><zip>1</zip></addr><addr><city>y</city></addr></s>`,
			map[string]classify.Category{"s": E, "addr": A, "city": A, "zip": A}},
		{"one value under two attribute labels", `<r><i><p>1</p><q>1</q></i><i><p>1</p><q>2</q></i><i><q>1</q><p>2</p></i></r>`,
			map[string]classify.Category{"i": E, "p": A, "q": A}},
		{"one value under two owner labels", `<r><i><p>1</p><j><p>1</p></j></i><j><p>1</p><p>2</p></j><i><p>2</p></i></r>`,
			map[string]classify.Category{"i": E, "j": E, "p": A}},
		{"one attribute child label under two entity labels", `<r><i><p/><j><p/></j></i><j><p>1</p></j></r>`,
			map[string]classify.Category{"r": E, "i": E, "j": E, "p": A}},
	} {
		doc, err := xmltree.ParseString(tc.xml)
		if err != nil {
			t.Fatal(err)
		}
		foldsAgree(t, tc.name, doc, classify.FromCategories(tc.cats))
	}
}

// dense is the numbering every fold goes through: the first owner of a
// symbol costs a compare, every other owner one overflow entry, and an id
// once given is given again.
func TestDenseNumbering(t *testing.T) {
	c := NewCollector(nil)
	first, id := int32(-1), int32(0)
	for _, step := range []struct {
		a, next, want int32
		fresh         bool
		over          int
	}{
		{a: 7, next: 0, want: 0, fresh: true, over: 0},
		{a: 7, next: 1, want: 0, fresh: false, over: 0},
		{a: 8, next: 1, want: 1, fresh: true, over: 1},
		{a: 7, next: 2, want: 0, fresh: false, over: 1},
		{a: 8, next: 2, want: 1, fresh: false, over: 1},
		{a: 0, next: 2, want: 2, fresh: true, over: 2},
	} {
		got, fresh := c.dense(&first, &id, step.a, key(keyType, step.a, 3), int(step.next))
		if got != step.want || fresh != step.fresh || len(c.over) != step.over {
			t.Fatalf("dense(%d) = %d, %v with %d overflow entries; want %d, %v with %d",
				step.a, got, fresh, len(c.over), step.want, step.fresh, step.over)
		}
	}
}

// The statistics of an indexed document's own root are folded once per
// classification and shared. A shard adopted across a delta reload keeps its
// index while the corpus-wide classification changes under it: the next
// whole-document fold is made under the new one, and a non-root result never
// reads the shared copy.
func TestRootStatsFollowTheClassification(t *testing.T) {
	doc := gen.Stores(gen.StoresConfig{Retailers: 2, StoresPerRetailer: 2, ClothesPerStore: 3, Seed: 5})
	ix := index.Build(doc)
	inferred := classify.Classify(doc)
	cats := inferred.Categories()
	cats["store"], cats["city"] = classify.Connection, classify.Entity // what a changed sibling shard could do
	changed := classify.FromCategories(cats)

	whole, store := doc.Subtree(doc.Root), doc.Subtree(doc.Root.Descendant("retailer", "store"))
	var last *Stats
	for i, cls := range []*classify.Classification{inferred, inferred, changed, changed, inferred} {
		got := NewCollector(cls).CollectResult(ix, whole)
		statsEqual(t, fmt.Sprintf("step %d", i), got, bruteCollect(doc.Root, cls))
		if shared := i == 1 || i == 3; shared != (got == last) {
			t.Fatalf("step %d: root statistics shared with the previous fold = %v, want %v", i, got == last, shared)
		}
		last = got
		statsEqual(t, fmt.Sprintf("step %d store", i), NewCollector(cls).CollectResult(ix, store), bruteCollect(store.Root, cls))
	}
}

// A fold allocates what the Stats owns — the Stats, its integer block, the
// instance arena, the entity labels, the entity/attribute pairs — and that
// count does not grow with the result, from index columns or from scratch.
func TestFoldAllocationsAreConstant(t *testing.T) {
	measure := func(clothes int) (indexed, scratch float64) {
		doc := gen.Stores(gen.StoresConfig{Retailers: 2, StoresPerRetailer: 2, ClothesPerStore: clothes, Seed: 5})
		cls, ix := classify.Classify(doc), index.Build(doc)
		view := doc.Subtree(doc.Root.Children[0])
		c := NewCollector(cls)
		c.CollectResult(ix, view)
		c.CollectResult(nil, view) // scratch at its high-water mark
		indexed = testing.AllocsPerRun(50, func() { c.CollectResult(ix, view) })
		scratch = testing.AllocsPerRun(50, func() { c.CollectResult(nil, view) })
		return indexed, scratch
	}
	smallIx, smallScratch := measure(2)
	largeIx, largeScratch := measure(400)
	if smallIx != largeIx || smallScratch != largeScratch || smallIx != smallScratch {
		t.Errorf("allocations per fold: indexed %v / %v, scratch %v / %v (small / large result)", smallIx, largeIx, smallScratch, largeScratch)
	}
	if smallIx > 5 {
		t.Errorf("a fold costs %v allocations, want at most 5", smallIx)
	}
}

// FuzzFold: whatever document Parse accepts, under the classification its
// data infers, every element as a result root folds to the oracle's
// statistics from the index's columns, from scratch columns and as an owned
// twin. Seeded from the FuzzSnippetFlat corpus.
func FuzzFold(f *testing.F) {
	deep := strings.Repeat("<e>", 300) + "x y" + strings.Repeat("</e>", 300)
	for _, s := range []string{
		`<a/>`,
		`<a><b>x</b><b>y</b></a>`,
		`<a k="v"><c/></a>`,
		`<a>text <b/> tail</a>`,
		`<r><s><n>a b</n><c>x</c><i><n>a</n></i><i><n>b</n></i></s><s><n>a b</n><c>y</c><i><n>a</n></i></s><s><c>x</c></s></r>`,
		`<r><e n=""><e n="r"><e n=""/></e></e><e n="e">e</e></r>`,
		`<r><i><p>1</p><q>1</q></i><i><p>1</p><q>2</q><j><p>1</p></j></i><j><p>1</p></j></r>`,
		`<r><p>red <c><d>red</d><e>blue</e></c> red</p><p><name>red</name>p<name>blue</name></p></r>`,
		deep,
	} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, src string) {
		doc, err := xmltree.ParseString(src, xmltree.WithMaxNodes(600))
		if err != nil {
			return
		}
		foldsAgree(t, "document", doc, classify.Classify(doc))
	})
}
