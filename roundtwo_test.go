package extract

import (
	"context"
	"fmt"
	"runtime"
	"slices"
	"testing"

	"extract/internal/gen"
	"extract/internal/index"
	"extract/internal/search"
	"extract/internal/workload"
	"extract/xmltree"
)

// TestRootInvolvingAnswersMatchUnsharded: the answers Merge's second round
// composes from the shards — no whole document evaluated or copied on the
// query path — are the unsharded corpus's, hit for hit: result XML, snippet
// XML, result key and score, on gen corpora at 2, 3 and 4 shards, local and
// routed, ranked and unranked. The query set is built to take round two by
// each of its three triggers, and the test fails unless every trigger was
// taken: the root as the sole SLCA, the root as an ELCA next to other ELCAs,
// and a result anchored at the root (a shard root) through a non-root LCA,
// kept by a WithMaxResults cut on one query and cut off on another.
func TestRootInvolvingAnswersMatchUnsharded(t *testing.T) {
	corpora := []struct {
		name string
		mk   func() *xmltree.Document
	}{
		{"stores", func() *xmltree.Document {
			return gen.Stores(gen.StoresConfig{Retailers: 5, StoresPerRetailer: 3, ClothesPerStore: 4, Seed: 11})
		}},
		{"auctions", func() *xmltree.Document { return gen.Auctions(gen.AuctionsConfig{Seed: 3}) }},
		{"movies", func() *xmltree.Document { return gen.Movies(gen.MoviesConfig{Movies: 12, Seed: 5}) }},
		{"stores with an entity root", rootEntityStores},
	}
	ctx := context.Background()
	var soleRootSLCA, rootELCAWithOthers, rootAnchoredKept, rootAnchoredCut int
	for _, cc := range corpora {
		xml := xmltree.XMLString(cc.mk().Root)
		whole, err := LoadString(xml, WithQueryCache(0))
		if err != nil {
			t.Fatal(err)
		}
		queries := roundTwoQueries(whole)
		for _, shards := range []int{2, 3, 4} {
			local, err := LoadString(xml, WithShards(shards), WithQueryCache(0))
			if err != nil {
				t.Fatal(err)
			}
			dir := t.TempDir()
			if err := local.SaveSnapshot(dir); err != nil {
				t.Fatal(err)
			}
			addrs, _ := startShardTier(t, dir, 2, 1)
			routed, err := Connect(dir, addrs, WithQueryCache(0))
			if err != nil {
				t.Fatal(err)
			}
			for _, q := range queries {
				for _, base := range [][]SearchOption{nil, {WithELCA()}} {
					uncut, err := whole.QueryContext(ctx, q, 6, base...)
					if err != nil {
						t.Fatal(err)
					}
					root, others := rootShape(t, uncut)
					viaShardRoot := root >= 0 && !rootLCA(t, uncut[root])
					for _, max := range []int{0, 1, 2, 3} {
						opts := slices.Clone(base)
						if max > 0 {
							opts = append(opts, WithMaxResults(max))
						}
						for _, ranked := range []bool{false, true} {
							o := opts
							if ranked {
								o = append(slices.Clone(opts), WithRanking())
							}
							want, err := whole.QueryContext(ctx, q, 6, o...)
							if err != nil {
								t.Fatal(err)
							}
							if count := shards == 2 && !ranked; count && max == 0 && root >= 0 && !viaShardRoot {
								if base == nil && others == 0 {
									soleRootSLCA++
								} else if base != nil && others > 0 {
									rootELCAWithOthers++
								}
							} else if count && max > 0 && viaShardRoot {
								if kept, _ := rootShape(t, want); kept >= 0 {
									rootAnchoredKept++
								} else {
									rootAnchoredCut++
								}
							}
							for side, c := range map[string]*Corpus{"local": local, "routed": routed} {
								label := fmt.Sprintf("%s/%d shards/%s/%q elca=%v max=%d ranked=%v", cc.name, shards, side, q, base != nil, max, ranked)
								got, err := c.QueryContext(ctx, q, 6, o...)
								if err != nil {
									t.Fatalf("%s: %v", label, err)
								}
								sameHits(t, label, want, got)
							}
						}
					}
				}
			}
			routed.Close()
			local.Close()
		}
		whole.Close()
	}
	t.Logf("triggers: sole root SLCA %d, root ELCA with others %d, root-anchored kept %d, cut %d",
		soleRootSLCA, rootELCAWithOthers, rootAnchoredKept, rootAnchoredCut)
	if soleRootSLCA == 0 || rootELCAWithOthers == 0 || rootAnchoredKept == 0 || rootAnchoredCut == 0 {
		t.Fatal("a round-two trigger was never taken: the query set proves nothing for it")
	}
}

// roundTwoQueries are queries that meet at the root: the root's own label,
// keyword pairs drawn from different top-level children (which land in
// different shards), generated workload queries, and the first few pairs of
// a vocabulary sample whose answer, under either semantics, holds a result
// anchored at the root through a non-root LCA (which only a corpus whose
// root has non-entity children gives).
func roundTwoQueries(c *Corpus) []string {
	doc := c.InternalShards().Shards()[0].Doc
	qs := []string{doc.Root.Label, "1 store", "2 store"}
	kids := doc.Root.Children
	first := func(n *xmltree.Node) (tok string) { // n's first text token
		n.Walk(func(m *xmltree.Node) bool {
			if toks := index.Tokenize(m.Value); m.IsText() && len(toks) > 0 {
				tok = toks[0]
			}
			return tok == ""
		})
		return tok
	}
	for i := 0; i+1 < len(kids); i += 2 {
		a, b := first(kids[i]), first(kids[len(kids)-1-i/2])
		if a != "" && b != "" && a != b {
			qs = append(qs, a+" "+b)
		}
		qs = append(qs, kids[i].Label+" "+doc.Root.Label)
	}
	for _, wq := range workload.Generate(doc, workload.Config{Queries: 6, Keywords: 2, Seed: 17}) {
		qs = append(qs, wq.Text())
	}
	shard := c.InternalShards().Shards()[0]
	voc := shard.Index.Vocabulary()
	var sample []string
	for i := 0; i < len(voc); i += max(1, len(voc)/40) {
		sample = append(sample, voc[i])
	}
	found := 0
	for i, a := range sample {
		for _, b := range sample[i+1:] {
			for _, sem := range []search.Semantics{search.SemanticsSLCA, search.SemanticsELCA} {
				rs, _ := shard.Engine(search.Options{Semantics: sem, DistinctAnchors: true}).Search(search.Parse(a + " " + b))
				if len(rs) > 1 && rs[0].Anchor.Parent == nil && rs[0].LCA.Parent != nil && found < 6 {
					qs = append(qs, a+" "+b)
					found++
					break
				}
			}
		}
	}
	return qs
}

// rootEntityStores is a gen stores corpus whose root is an entity — its
// label repeats as siblings inside the first retailer — with a root-level
// note first (intro) and last (outro): an LCA inside a note has no entity above it but the
// root, so its result is anchored at the root (at a shard root, in a shard)
// through a non-root LCA. "1 store" meets in the intro, before store 1's name in
// LCA order; "2 store" in store 2's name, before the outro.
func rootEntityStores() *xmltree.Document {
	root := gen.Stores(gen.StoresConfig{Retailers: 5, StoresPerRetailer: 3, ClothesPerStore: 4, Seed: 11}).Root
	first := root.Children[0]
	xmltree.Append(first, xmltree.Elem(root.Label, xmltree.Txt("partner")))
	xmltree.Append(first, xmltree.Elem(root.Label, xmltree.Txt("network")))
	intro := xmltree.Elem("intro", xmltree.Attr("note", "Store 1 outlet"))
	intro.Parent, root.Children = root, append([]*xmltree.Node{intro}, root.Children...)
	xmltree.Append(root, xmltree.Elem("outro", xmltree.Attr("note", "Store 2 outlet")))
	return xmltree.NewDocument(root)
}

// rootShape returns the index of the hit anchored at the document root (-1
// when none is) and the number of other hits.
func rootShape(t *testing.T, hits []*Hit) (root, others int) {
	root = -1
	for i, h := range hits {
		r, err := h.Result.Internal()
		if err != nil {
			t.Fatal(err)
		}
		if r.Anchor.Parent == nil {
			root = i
		} else {
			others++
		}
	}
	return root, others
}

// rootLCA reports whether a hit's LCA is the document root itself.
func rootLCA(t *testing.T, h *Hit) bool {
	r, err := h.Result.Internal()
	if err != nil {
		t.Fatal(err)
	}
	return r.LCA.Parent == nil
}

// sameHits fails unless got equals want hit for hit: result XML, snippet XML,
// result key, score, and each match keyword's matches at their positions in
// the result tree.
func sameHits(t *testing.T, label string, want, got []*Hit) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d hits, want %d", label, len(got), len(want))
	}
	for i := range want {
		if a, b := must(want[i].Result.XML()), must(got[i].Result.XML()); a != b {
			t.Fatalf("%s: hit %d result differs\nwant %s\ngot  %s", label, i, a, b)
		}
		if a, b := want[i].Snippet.XML(), got[i].Snippet.XML(); a != b {
			t.Fatalf("%s: hit %d snippet differs\nwant %s\ngot  %s", label, i, a, b)
		}
		if a, b := want[i].Snippet.ResultKey(), got[i].Snippet.ResultKey(); a != b {
			t.Fatalf("%s: hit %d result key %q, want %q", label, i, b, a)
		}
		if a, b := want[i].Result.Score(), got[i].Result.Score(); a != b {
			t.Fatalf("%s: hit %d score %v, want %v", label, i, b, a)
		}
		if a, b := matchPositions(t, want[i]), matchPositions(t, got[i]); a != b {
			t.Fatalf("%s: hit %d matches %s, want %s", label, i, b, a)
		}
	}
}

// matchPositions renders a hit's match keywords, each with its matches'
// preorder positions below the result root.
func matchPositions(t *testing.T, h *Hit) string {
	r, err := h.Result.Internal()
	if err != nil {
		t.Fatal(err)
	}
	out := ""
	for _, kw := range r.MatchKeywords() {
		out += kw + ":"
		for _, m := range r.Matches(kw) {
			out += fmt.Sprint(" ", m.Ord-r.Root.Ord)
		}
		out += ";"
	}
	return out
}

// TestColdRootInvolvingQueryAllocations: a cold root-involving query on a
// 4-shard corpus — round two, its whole-document result and that result's
// snippet — allocates the same number of objects whatever the corpus's size:
// the whole document's statistics are folded once per generation, its
// snippet reads the shards through the view, and nothing of it is copied:
// no index is built, and the result's tree stays unbuilt. The count is at
// most the measured ceiling: the whole-document result holds round one's
// posting lists, so neither ranking nor its snippet resolves the query again.
func TestColdRootInvolvingQueryAllocations(t *testing.T) {
	if raceDetector {
		t.Skip("the race detector's own allocations make counts inexact")
	}
	const ceiling = 71
	ctx := context.Background()
	counts := make(map[string]float64)
	nodes := make([]int, 2)
	for ci, clothes := range []int{3, 60} {
		doc := gen.Stores(gen.StoresConfig{Retailers: 4, StoresPerRetailer: 8, ClothesPerStore: clothes, Seed: 5})
		nodes[ci] = doc.Len()
		c, err := LoadString(xmltree.XMLString(doc.Root), WithShards(4), WithQueryCache(0))
		if err != nil {
			t.Fatal(err)
		}
		for _, tc := range []struct {
			q    string
			opts []SearchOption
		}{
			{doc.Root.Label, nil},                        // the root, the sole SLCA
			{doc.Root.Label, []SearchOption{WithELCA()}}, // the root, an ELCA
			{doc.Root.Label, []SearchOption{WithRanking()}},
		} {
			query := func() {
				hits, err := c.QueryContext(ctx, tc.q, 6, tc.opts...)
				if err != nil || len(hits) != 1 || hits[0].Snippet.XML() == "" {
					t.Fatalf("%q: %d hits, %v; want the whole document's", tc.q, len(hits), err)
				}
				if _, deferred := hits[0].Result.r.Retained(); !deferred {
					t.Fatalf("%q: the whole-document result's tree was built", tc.q)
				}
			}
			builds := index.Builds()
			for range 20 { // the pooled scratch grows, the statistics are folded
				query()
			}
			got := testing.AllocsPerRun(100, query)
			t.Logf("%d-node corpus, %q %v: %v objects", nodes[ci], tc.q, tc.opts, got)
			if index.Builds() != builds {
				t.Fatalf("%q: %d index builds: the whole document was copied", tc.q, index.Builds()-builds)
			}
			key := fmt.Sprint(len(tc.opts), tc.opts)
			if ci == 0 {
				counts[key] = got
			} else if got != counts[key] {
				t.Errorf("%q %d: %v objects on a %d-node corpus, %v on %d nodes", tc.q, len(tc.opts), got, nodes[1], counts[key], nodes[0])
			}
			if got > ceiling {
				t.Errorf("%q %d: %v objects, ceiling %d", tc.q, len(tc.opts), got, ceiling)
			}
		}
		c.Close()
	}
	if nodes[1] < 10*nodes[0] {
		t.Fatalf("corpora of %d and %d nodes: not tenfold apart", nodes[0], nodes[1])
	}
}

// TestRootInvolvingQueryBytes: the bytes one cold root-involving query
// allocates, snippet included, do not grow with the corpus. Its
// whole-document result's interval is the whole corpus, and its snippet's
// tree membership used to be an array over that interval — four bytes a
// corpus node, allocated anew whenever a collection had emptied the pool
// of selections. Each query here is measured right after two collections
// (which empty every pool), on two corpora more than tenfold apart, and the
// larger may not allocate twice the smaller's bytes.
func TestRootInvolvingQueryBytes(t *testing.T) {
	if raceDetector {
		t.Skip("the race detector's own allocations make counts inexact")
	}
	ctx := context.Background()
	var nodes, bytes [2]int
	for ci, clothes := range []int{3, 60} {
		doc := gen.Stores(gen.StoresConfig{Retailers: 4, StoresPerRetailer: 8, ClothesPerStore: clothes, Seed: 5})
		nodes[ci] = doc.Len()
		c, err := LoadString(xmltree.XMLString(doc.Root), WithShards(4), WithQueryCache(0))
		if err != nil {
			t.Fatal(err)
		}
		query := func() {
			hits, err := c.QueryContext(ctx, doc.Root.Label, 6)
			if err != nil || len(hits) != 1 || hits[0].Snippet.XML() == "" {
				t.Fatalf("%q: %d hits, %v; want the whole document's", doc.Root.Label, len(hits), err)
			}
		}
		query() // the whole document's statistics are folded once
		for trial := range 3 {
			runtime.GC()
			runtime.GC()
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			query()
			runtime.ReadMemStats(&after)
			if b := int(after.TotalAlloc - before.TotalAlloc); trial == 0 || b < bytes[ci] {
				bytes[ci] = b
			}
		}
		t.Logf("%d-node corpus: %d bytes", nodes[ci], bytes[ci])
		c.Close()
	}
	if nodes[1] < 10*nodes[0] {
		t.Fatalf("corpora of %d and %d nodes: not tenfold apart", nodes[0], nodes[1])
	}
	if bytes[1] >= 2*bytes[0] {
		t.Errorf("a cold root-involving query allocates %d bytes on %d nodes, %d on %d", bytes[1], nodes[1], bytes[0], nodes[0])
	}
}
