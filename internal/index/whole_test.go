package index_test

import (
	"slices"
	"testing"

	"extract/internal/gen"
	"extract/internal/index"
	"extract/internal/shard"
	"extract/xmltree"
)

// TestWholeMatchesUnsharded holds index.Whole to the document it reads
// through the shards: at every global position, the node of the sharded
// corpus's Whole has the label, value, parent and subtree end of the
// unsharded document's node at that position; global symbol ids are equal
// exactly when the strings are; and the whole document's columns are the
// unsharded document's. A Whole of one part is its index: Global, Locate
// and Sym are the identity, and its columns are the index's own. A document
// is cut into no more shards than its root has children (auctions has 3).
func TestWholeMatchesUnsharded(t *testing.T) {
	for _, tc := range []struct {
		name string
		doc  func() *xmltree.Document
	}{
		{"stores", func() *xmltree.Document {
			return gen.Stores(gen.StoresConfig{Retailers: 5, StoresPerRetailer: 2, ClothesPerStore: 4, Seed: 3})
		}},
		{"auctions", func() *xmltree.Document {
			return gen.Auctions(gen.AuctionsConfig{People: 8, Auctions: 6, Items: 10, Seed: 12})
		}},
		{"movies", func() *xmltree.Document { return gen.Movies(gen.MoviesConfig{Movies: 12, Seed: 7}) }},
	} {
		want := tc.doc()
		ref := index.Build(want)
		for _, n := range []int{1, 3, 4} {
			w := shard.Build(tc.doc(), n).Whole()
			if len(w.Parts()) != min(n, len(want.Root.Children)) || w.Len() != want.Len() {
				t.Fatalf("%s in %d shards: %d parts of %d nodes, want %d nodes", tc.name, n, len(w.Parts()), w.Len(), want.Len())
			}
			syms := [2]map[int32]string{{}, {}}
			ids := [2]map[string]int32{{}, {}}
			for pos := range int32(w.Len()) {
				got, wn := w.Node(pos), want.Nodes()[pos]
				if got.Kind != wn.Kind || got.Label != wn.Label || got.Value != wn.Value {
					t.Fatalf("%s in %d shards: node %d is %v, want %v", tc.name, n, pos, got, wn)
				}
				i, local := w.Locate(pos)
				end := int32(w.Len() - 1)
				if pos != 0 {
					end = pos + got.End - got.Start
				}
				if end != wn.End || pos != 0 && w.Global(i, int32(got.Parent.Ord)) != wn.Parent.Start || w.Global(i, local) != pos {
					t.Fatalf("%s in %d shards: node %d has end %d and parent %d, want %d and %d", tc.name, n, pos, end, got.Parent.Start, wn.End, wn.Parent.Start)
				}
				space, s := 0, got.Label
				if got.Kind == xmltree.KindText {
					space, s = 1, got.Value
				}
				sym := w.Sym(pos, got)
				if prev, ok := syms[space][sym]; ok && prev != s {
					t.Fatalf("%s in %d shards: symbol %d is %q and %q", tc.name, n, sym, prev, s)
				}
				if prev, ok := ids[space][s]; ok && prev != sym {
					t.Fatalf("%s in %d shards: %q has symbols %d and %d", tc.name, n, s, prev, sym)
				}
				syms[space][sym], ids[space][s] = s, sym
			}
			got, wc := w.Columns(), ref.Columns()
			if !slices.Equal(got.Pos, wc.Pos) || !slices.Equal(got.End, wc.End) || !slices.Equal(got.Parent, wc.Parent) ||
				!slices.Equal(got.Label, wc.Label) || !slices.Equal(got.Value, wc.Value) {
				t.Fatalf("%s in %d shards: the columns differ from the unsharded document's", tc.name, n)
			}
		}

		one := ref.Whole()
		if one != ref.Whole() || one.Parts()[0] != ref || one.Columns() != ref.Columns() || one.Len() != want.Len() {
			t.Fatalf("%s: the Whole of one part is not its index's", tc.name)
		}
		for pos, wn := range want.Nodes() {
			p := int32(pos)
			if i, local := one.Locate(p); i != 0 || local != p || one.Global(0, p) != p || one.Sym(p, wn) != wn.Sym || one.Node(p) != wn {
				t.Fatalf("%s: one part does not address node %d as the document does", tc.name, pos)
			}
		}
	}
}
