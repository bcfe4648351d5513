package index

import (
	"reflect"
	"testing"

	"extract/internal/gen"
	"extract/xmltree"
)

// referenceBuild is Build as it was before the lists were memoized by
// symbol: every element re-tokenizes its label and each text child, and
// looks every token up in the map. It is frozen here as the reference
// TestIndexBuildMatchesReference holds Build to — never edit it to agree.
func referenceBuild(doc *xmltree.Document) *Index {
	ix := &Index{doc: doc, postings: make(map[string]*PostingList)}
	ix.cols.reset(countElements(doc.Nodes()))
	elements := 0
	add := func(keyword string, n *xmltree.Node, f MatchField) {
		list := ix.postings[keyword]
		if list == nil {
			list = &PostingList{}
			ix.postings[keyword] = list
		}
		if k := len(list.Nodes); k > 0 && list.Nodes[k-1] == n {
			list.Fields[k-1] |= f
			return
		}
		list.Ords = append(list.Ords, int32(n.Ord))
		list.Nodes = append(list.Nodes, n)
		list.Fields = append(list.Fields, f)
		ix.total++
	}
	for _, n := range doc.Nodes() {
		if !n.IsElement() {
			continue
		}
		ix.cols.put(elements, n)
		elements++
		for _, t := range Tokenize(n.Label) {
			add(t, n, FieldLabel)
		}
		for _, c := range n.Children {
			if !c.IsText() {
				continue
			}
			for _, t := range Tokenize(c.Value) {
				add(t, n, FieldValue)
			}
		}
	}
	for _, list := range ix.postings {
		if list.Len() > ix.maxList {
			ix.maxList = list.Len()
		}
	}
	return ix
}

// TestIndexBuildMatchesReference holds Build to the per-node tokenizing
// reference, list for list, on generated corpora of every kind, a subtree
// view, and a hand-made document with the cases the memo could get wrong:
// mixed content, a token repeated in one value, a label token that also
// occurs in a value, upper-case and non-ASCII text.
func TestIndexBuildMatchesReference(t *testing.T) {
	mixed := xmltree.Elem("Shop",
		xmltree.Elem("item",
			xmltree.Txt("red Item red"),
			xmltree.Attr("color", "RED red"),
			xmltree.Txt("item Déjà VU"),
			xmltree.Elem("note", xmltree.Txt("déjà vu, ÉTÉ été")),
		),
		xmltree.Elem("item", xmltree.Txt("red Item red")),
		xmltree.Elem("shop_item", xmltree.Txt("SHOP")),
		xmltree.Elem("empty"),
		xmltree.Elem("punct", xmltree.Txt("--- ,,, ")),
		xmltree.Attr("note", "déjà vu, ÉTÉ été"),
	)
	stores := gen.Stores(gen.StoresConfig{Retailers: 3, StoresPerRetailer: 4, ClothesPerStore: 5, Seed: 3})
	docs := map[string]*xmltree.Document{
		"stores":   stores,
		"auctions": gen.Auctions(gen.AuctionsConfig{People: 20, Auctions: 15, Items: 20, Seed: 5}),
		"movies":   gen.Movies(gen.MoviesConfig{Movies: 20, ActorsPerMovie: 3, ReviewsPerMovie: 2, Seed: 7}),
		"view":     stores.Subtree(stores.Root.Children[1]),
		"mixed":    xmltree.NewDocument(mixed),
	}
	for name, doc := range docs {
		t.Run(name, func(t *testing.T) {
			got, want := Build(doc), referenceBuild(doc)
			if !reflect.DeepEqual(got.Vocabulary(), want.Vocabulary()) {
				t.Fatalf("vocabulary %v, want %v", got.Vocabulary(), want.Vocabulary())
			}
			for _, kw := range want.Vocabulary() {
				g, w := got.ListOf(kw), want.ListOf(kw)
				if !reflect.DeepEqual(g.Ords, w.Ords) || !reflect.DeepEqual(g.Nodes, w.Nodes) || !reflect.DeepEqual(g.Fields, w.Fields) {
					t.Fatalf("list %q: %v %v, want %v %v", kw, g.Ords, g.Fields, w.Ords, w.Fields)
				}
			}
			if got.TotalPostings() != want.TotalPostings() || got.LongestList() != want.LongestList() {
				t.Fatalf("total %d, longest %d; want %d, %d",
					got.TotalPostings(), got.LongestList(), want.TotalPostings(), want.LongestList())
			}
			gc, wc := got.Columns(), want.Columns()
			for _, col := range [][2][]int32{{gc.Pos, wc.Pos}, {gc.End, wc.End}, {gc.Label, wc.Label}, {gc.Parent, wc.Parent}, {gc.Value, wc.Value}} {
				if !reflect.DeepEqual(col[0], col[1]) {
					t.Fatalf("columns %v, want %v", col[0], col[1])
				}
			}
			if want.TotalPostings() == 0 {
				t.Fatal("the reference posted nothing")
			}
		})
	}
	// The hand-made document's cases did occur.
	ix := Build(docs["mixed"])
	for kw, fields := range map[string][]MatchField{
		"item": {FieldLabel | FieldValue, FieldLabel | FieldValue, FieldLabel},
		"shop": {FieldLabel, FieldLabel | FieldValue},
		"red":  {FieldValue, FieldValue, FieldValue},
		"été":  {FieldValue, FieldValue},
	} {
		if got := ix.ListOf(kw); got == nil || !reflect.DeepEqual(got.Fields, fields) {
			t.Errorf("list %q: %+v, want fields %v", kw, got, fields)
		}
	}
}
