package xmltree_test

import (
	"strings"
	"testing"

	"extract/internal/gen"
	"extract/xmltree"
)

// TestRenderMatchesReference holds every renderer to its frozen reference
// (render_oracle_test.go) on every node of generated corpora and of the
// demo server's built-in datasets, as built and again with every
// attribute-shaped element serialized as an attribute, highlighting
// mixed-case keywords taken from each corpus's own text.
func TestRenderMatchesReference(t *testing.T) {
	corpora := []struct {
		name string
		doc  func() *xmltree.Document
	}{
		{"stores", func() *xmltree.Document {
			return gen.Stores(gen.StoresConfig{Retailers: 4, StoresPerRetailer: 3, ClothesPerStore: 5, Seed: 11})
		}},
		{"auctions", func() *xmltree.Document {
			return gen.Auctions(gen.AuctionsConfig{People: 8, Auctions: 6, Items: 10, Seed: 12})
		}},
		// cmd/extractd's built-in datasets.
		{"stores (Figure 5)", gen.Figure5Corpus},
		{"retailers (Figure 1)", gen.Figure1Corpus},
		{"movies", func() *xmltree.Document { return gen.Movies(gen.MoviesConfig{Movies: 30, Seed: 7}) }},
	}
	for _, c := range corpora {
		for _, attrs := range []bool{false, true} {
			doc := c.doc()
			if attrs {
				doc.Root.Walk(func(n *xmltree.Node) bool {
					n.FromAttr = n != doc.Root && n.HasSingleTextChild()
					return true
				})
			}
			kws := xmltree.MixedCaseKeywords(doc.Root.Text())
			if !strings.Contains(xmltree.RenderHTML(doc.Root, kws), "<mark>") {
				t.Fatalf("%s: keywords %q highlight nothing", c.name, kws)
			}
			nodes := 0
			doc.Root.Walk(func(n *xmltree.Node) bool {
				nodes++
				if msg := xmltree.RenderMismatch(n, kws); msg != "" {
					t.Fatalf("%s (attributes %v), node %d: %s", c.name, attrs, n.Ord, msg)
				}
				return true
			})
			if nodes < 50 {
				t.Fatalf("%s: only %d nodes", c.name, nodes)
			}
		}
	}
}
