package features

import (
	"strconv"
	"testing"

	"extract/internal/classify"
	"extract/internal/gen"
	"extract/xmltree"
)

// The integer-keyed, single-pass Collector must be observationally identical
// to the brute-force oracle on every generated corpus shape.
func TestCollectorMatchesBaseline(t *testing.T) {
	cases := []struct {
		name string
		doc  *xmltree.Document
	}{
		{"figure1", gen.Figure1Result()},
		{"stores", gen.Stores(gen.StoresConfig{Retailers: 3, StoresPerRetailer: 4, ClothesPerStore: 6, Seed: 5})},
		{"auctions", gen.Auctions(gen.AuctionsConfig{People: 6, Auctions: 5, Items: 8, Seed: 6})},
		{"movies", gen.Movies(gen.MoviesConfig{Movies: 9, Seed: 7})},
		{"wide", wideDocument(3000)},
	}
	for _, tc := range cases {
		cls := classify.Classify(tc.doc)
		fast := Collect(tc.doc.Root, cls)
		statsEqual(t, tc.name, fast, bruteCollect(tc.doc.Root, cls))
	}
}

// A result may be a view rooted anywhere in its source document, below
// entities included. Both collectors see the subtree and nothing above it:
// an attribute whose nearest entity lies outside the result has no owner.
func TestCollectorsAgreeOnViews(t *testing.T) {
	doc := gen.Stores(gen.StoresConfig{Retailers: 2, StoresPerRetailer: 2, ClothesPerStore: 3, Seed: 5})
	cls := classify.Classify(doc)
	for _, n := range doc.Nodes() {
		fast, base := Collect(n, cls), bruteCollect(n, cls)
		statsEqual(t, n.String(), fast, base)
		if cls.IsAttribute(n) && len(base.order) != 0 {
			t.Fatalf("%v: a lone attribute took a feature %v from an entity outside it", n, base.order)
		}
	}
}

// A reused Collector must produce the same statistics as fresh ones, for
// every result in a sequence (the generator reuses collectors across the
// snippet fan-out).
func TestCollectorReuse(t *testing.T) {
	doc := gen.Stores(gen.StoresConfig{Retailers: 4, StoresPerRetailer: 3, ClothesPerStore: 5, Seed: 8})
	cls := classify.Classify(doc)
	shared := NewCollector(cls)
	for i, retailer := range doc.Root.ChildElements("retailer") {
		result := xmltree.NewDocument(xmltree.DeepCopy(retailer))
		got := shared.Collect(result.Root)
		statsEqual(t, retailer.Label+string(rune('0'+i)), got, bruteCollect(result.Root, cls))
	}
	// And collecting nothing resets cleanly.
	empty := shared.Collect(nil)
	if len(empty.Features()) != 0 || len(empty.EntityLabels()) != 0 {
		t.Fatalf("nil collect not empty: %v", empty.Features())
	}
}

// Labels outside the classification (e.g. a result vocabulary the corpus
// never saw) must still collect correctly via the extension table.
func TestCollectorUnknownLabels(t *testing.T) {
	doc := gen.Figure1Corpus()
	cls := classify.Classify(doc)
	// A synthetic result using one known entity and unknown attribute-like
	// labels: unknown labels classify as Connection, so only known
	// attributes contribute features — both collectors must agree.
	root := xmltree.Elem("store",
		xmltree.Attr("city", "Houston"),
		xmltree.Elem("mystery", xmltree.Txt("value")),
	)
	result := xmltree.NewDocument(root)
	statsEqual(t, "unknown", Collect(result.Root, cls), bruteCollect(result.Root, cls))
}

// wideDocument has n entity instances with a distinct value each (and a
// value all share).
func wideDocument(n int) *xmltree.Document {
	root := xmltree.Elem("items")
	for i := 0; i < n; i++ {
		xmltree.Append(root, xmltree.Elem("item",
			xmltree.Attr("sku", strconv.Itoa(i)),
			xmltree.Attr("kind", "thing"),
		))
	}
	return xmltree.NewDocument(root)
}

// A Collector reused across results of very different sizes — past the
// overflow map it keeps, and back — gathers each result's statistics as a
// fresh one would. collidingDocument sends every feature but the first of a
// result through the overflow map.
func TestCollectorScratchBounds(t *testing.T) {
	cls := classify.Classify(collidingDocument(5))
	c := NewCollector(cls)
	for _, n := range []int{overKeep + 2, 3, 120, 1} {
		result := collidingDocument(n)
		statsEqual(t, strconv.Itoa(n), c.Collect(result.Root), bruteCollect(result.Root, cls))
		if len(c.over) != 0 {
			t.Errorf("%d-item result left %d overflow keys behind", n, len(c.over))
		}
	}
}

// collidingDocument has n items, each with its own attribute label, all
// holding one value: n feature types sharing a value symbol.
func collidingDocument(n int) *xmltree.Document {
	root := xmltree.Elem("items")
	for i := 0; i < 2; i++ { // twice, so item is an entity
		for k := 0; k < n; k++ {
			xmltree.Append(root, xmltree.Elem("item", xmltree.Attr("a"+strconv.Itoa(k), "same")))
		}
	}
	return xmltree.NewDocument(root)
}

// The three kinds of overflow key share one map; their fields must never run into
// each other, whatever the ids.
func TestSeenKeysAreDistinct(t *testing.T) {
	ids := []int32{0, 1, 1<<31 - 1}
	seen := map[uint64]bool{}
	for _, tag := range []uint64{keyFeature, keyType, keyPair} {
		for _, a := range ids {
			for _, b := range ids {
				k := key(tag, a, b)
				if seen[k] {
					t.Fatalf("key(%d, %d, %d) collides", tag>>62, a, b)
				}
				seen[k] = true
			}
		}
	}
}

// A result past scratchKeepNodes elements drops the collector's scratch with
// its statistics, columns included: the statistics of a tree that has no
// index then hand out no columns, and the selection fills its own, rather
// than columns the drop has emptied.
func TestScratchDroppedPastTheBound(t *testing.T) {
	defer func(n int) { scratchKeepNodes = n }(scratchKeepNodes)
	scratchKeepNodes = 8
	doc := gen.Stores(gen.StoresConfig{Retailers: 2, StoresPerRetailer: 2, ClothesPerStore: 3, Seed: 5})
	c := NewCollector(classify.Classify(doc))
	var small *xmltree.Document
	for _, n := range doc.Nodes() {
		if n.Label == "clothes" {
			small = doc.Subtree(n)
			break
		}
	}
	if s := c.CollectIn(nil, 0, 0, small); s.Columns() == nil || s.Columns().Len() != elements(small) || elements(small) >= scratchKeepNodes {
		t.Fatalf("a small index-less result's statistics hand out no columns of its elements")
	}
	if s := c.CollectIn(nil, 0, 0, doc); s.Columns() != nil {
		t.Fatalf("statistics past the bound hand out columns of %d entries, for %d nodes", s.Columns().Len(), doc.Len())
	}
}

func elements(doc *xmltree.Document) int {
	n := 0
	for _, x := range doc.Nodes() {
		if x.IsElement() {
			n++
		}
	}
	return n
}
