package features

import (
	"reflect"
	"testing"

	"extract/internal/classify"
	"extract/internal/gen"
	"extract/xmltree"
)

// statsEqual compares the complete observable surface of two Stats.
func statsEqual(t *testing.T, name string, a, b *Stats) {
	t.Helper()
	if !reflect.DeepEqual(a.Features(), b.Features()) {
		t.Fatalf("%s: features differ:\n%v\nvs\n%v", name, a.Features(), b.Features())
	}
	if !reflect.DeepEqual(a.Types(), b.Types()) {
		t.Fatalf("%s: types differ: %v vs %v", name, a.Types(), b.Types())
	}
	for _, f := range a.Features() {
		if a.N(f) != b.N(f) {
			t.Fatalf("%s: N(%v) = %d vs %d", name, f, a.N(f), b.N(f))
		}
		if a.Dominance(f) != b.Dominance(f) {
			t.Fatalf("%s: DS(%v) = %v vs %v", name, f, a.Dominance(f), b.Dominance(f))
		}
		if a.IsDominant(f) != b.IsDominant(f) {
			t.Fatalf("%s: dominant(%v) differs", name, f)
		}
		if !reflect.DeepEqual(a.Instances(f), b.Instances(f)) {
			t.Fatalf("%s: instances(%v) differ", name, f)
		}
	}
	for _, ty := range a.Types() {
		if a.TypeN(ty) != b.TypeN(ty) || a.TypeD(ty) != b.TypeD(ty) {
			t.Fatalf("%s: type %v: N%d D%d vs N%d D%d", name, ty,
				a.TypeN(ty), a.TypeD(ty), b.TypeN(ty), b.TypeD(ty))
		}
	}
	if !reflect.DeepEqual(a.Dominant(), b.Dominant()) {
		t.Fatalf("%s: dominant sets differ:\n%v\nvs\n%v", name, a.Dominant(), b.Dominant())
	}
	if !reflect.DeepEqual(a.EntityLabels(), b.EntityLabels()) {
		t.Fatalf("%s: entity labels differ: %v vs %v", name, a.EntityLabels(), b.EntityLabels())
	}
	for _, l := range a.EntityLabels() {
		if a.FirstEntity(l) != b.FirstEntity(l) {
			t.Fatalf("%s: first %q instance differs", name, l)
		}
	}
	if a.Report() != b.Report() {
		t.Fatalf("%s: reports differ:\n%s\nvs\n%s", name, a.Report(), b.Report())
	}
}

// The interned, single-walk Collector must be observationally identical to
// the baseline collector on every generated corpus shape.
func TestCollectorMatchesBaseline(t *testing.T) {
	cases := []struct {
		name string
		doc  *xmltree.Document
	}{
		{"figure1", gen.Figure1Result()},
		{"stores", gen.Stores(gen.StoresConfig{Retailers: 3, StoresPerRetailer: 4, ClothesPerStore: 6, Seed: 5})},
		{"auctions", gen.Auctions(gen.AuctionsConfig{People: 6, Auctions: 5, Items: 8, Seed: 6})},
		{"movies", gen.Movies(gen.MoviesConfig{Movies: 9, Seed: 7})},
	}
	for _, tc := range cases {
		cls := classify.Classify(tc.doc)
		fast := Collect(tc.doc.Root, cls)
		base := CollectBaseline(tc.doc.Root, cls)
		statsEqual(t, tc.name, fast, base)
	}
}

// A result may be a view rooted anywhere in its source document, below
// entities included. Both collectors see the subtree and nothing above it:
// an attribute whose nearest entity lies outside the result has no owner.
func TestCollectorsAgreeOnViews(t *testing.T) {
	doc := gen.Stores(gen.StoresConfig{Retailers: 2, StoresPerRetailer: 2, ClothesPerStore: 3, Seed: 5})
	cls := classify.Classify(doc)
	for _, n := range doc.Nodes() {
		fast, base := Collect(n, cls), CollectBaseline(n, cls)
		statsEqual(t, n.String(), fast, base)
		if cls.IsAttribute(n) && len(base.Features()) != 0 {
			t.Fatalf("%v: a lone attribute took a feature %v from an entity outside it", n, base.Features())
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
		want := CollectBaseline(result.Root, cls)
		statsEqual(t, retailer.Label+string(rune('0'+i)), got, want)
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
	statsEqual(t, "unknown", Collect(result.Root, cls), CollectBaseline(result.Root, cls))
}
