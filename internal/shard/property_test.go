package shard

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"extract/internal/core"
	"extract/internal/gen"
	"extract/internal/index"
	"extract/internal/search"
	"extract/internal/workload"
	"extract/xmltree"
)

// The central equivalence property of the sharded engine: for any corpus,
// shard count, query, semantics and construction mode, Corpus.Search
// returns the same result trees as the unsharded engine, and snippet
// generation over those results produces byte-identical snippets.

type corpusCase struct {
	name string
	mk   func() *xmltree.Document
}

func generatedCorpora() []corpusCase {
	return []corpusCase{
		{"figure1", gen.Figure1Corpus},
		{"figure5", gen.Figure5Corpus},
		{"stores", func() *xmltree.Document {
			return gen.Stores(gen.StoresConfig{Retailers: 5, StoresPerRetailer: 3, ClothesPerStore: 6, Seed: 11})
		}},
		{"movies", func() *xmltree.Document {
			return gen.Movies(gen.MoviesConfig{Movies: 12, Seed: 5})
		}},
		{"auctions", func() *xmltree.Document {
			return gen.Auctions(gen.AuctionsConfig{Seed: 3})
		}},
	}
}

func equivQueries(doc *xmltree.Document, ix *index.Index) []string {
	qs := []string{}
	for _, q := range workload.Generate(doc, workload.Config{Queries: 6, Keywords: 2, Seed: 13}) {
		qs = append(qs, q.Text())
	}
	for _, q := range workload.Generate(doc, workload.Config{Queries: 4, Keywords: 3, Seed: 29}) {
		qs = append(qs, q.Text())
	}
	// A keyword that misses entirely, and a single-keyword query.
	qs = append(qs, "zzznosuchkeyword", "zzznosuchkeyword existing")
	if voc := ix.Vocabulary(); len(voc) > 0 {
		qs = append(qs, voc[len(voc)/2])
	}
	return qs
}

func checkQueryEquivalence(t *testing.T, name string, mk func() *xmltree.Document, shardCounts []int) {
	t.Helper()
	unsharded := core.BuildCorpus(mk())
	queries := equivQueries(unsharded.Doc, unsharded.Index)
	optsList := []search.Options{
		{DistinctAnchors: true},
		{DistinctAnchors: true, Semantics: search.SemanticsELCA},
		{DistinctAnchors: false},
		{DistinctAnchors: true, Mode: search.ModeXSeek},
		{DistinctAnchors: true, MaxResults: 3},
	}
	for _, n := range shardCounts {
		sc := Build(mk(), n)
		gen1 := core.NewGenerator(unsharded)
		gen2 := core.NewGenerator(sc.Analysis())
		for _, opts := range optsList {
			for _, q := range queries {
				label := fmt.Sprintf("%s/n=%d/sem=%d/mode=%d/max=%d/q=%q",
					name, n, opts.Semantics, opts.Mode, opts.MaxResults, q)
				want, werr := search.NewEngine(unsharded.Doc, unsharded.Index, unsharded.Cls, opts).Search(search.Parse(q))
				got, gerr := sc.Search(q, opts)
				if (werr == nil) != (gerr == nil) {
					t.Fatalf("%s: errors differ: %v vs %v", label, werr, gerr)
				}
				if werr != nil {
					continue
				}
				if len(want) != len(got) {
					t.Fatalf("%s: %d results, want %d", label, len(got), len(want))
				}
				for i := range want {
					w := xmltree.XMLString(want[i].Root)
					g := xmltree.XMLString(got[i].Root)
					if w != g {
						t.Fatalf("%s: result %d differs\nwant %s\ngot  %s", label, i, w, g)
					}
					// Snippets must be byte-identical too (bound from the
					// E4 experiment shape).
					sw := gen1.ForResult(want[i], q, 10)
					sg := gen2.ForResult(got[i], q, 10)
					if a, b := xmltree.XMLString(sw.Snippet.Root), xmltree.XMLString(sg.Snippet.Root); a != b {
						t.Fatalf("%s: snippet %d differs\nwant %s\ngot  %s", label, i, a, b)
					}
					if a, b := strings.Join(sw.IList.Texts(), "|"), strings.Join(sg.IList.Texts(), "|"); a != b {
						t.Fatalf("%s: ilist %d differs\nwant %s\ngot  %s", label, i, a, b)
					}
					if sw.IList.KeyValue != sg.IList.KeyValue {
						t.Fatalf("%s: key %d = %q, want %q", label, i, sg.IList.KeyValue, sw.IList.KeyValue)
					}
				}
			}
		}
	}
}

func TestEquivalenceOnGeneratedCorpora(t *testing.T) {
	for _, c := range generatedCorpora() {
		c := c
		t.Run(c.name, func(t *testing.T) {
			checkQueryEquivalence(t, c.name, c.mk, []int{1, 2, 3, 7})
		})
	}
}

func TestEquivalenceOnRandomCorpora(t *testing.T) {
	for seed := int64(0); seed < 25; seed++ {
		mk := func() *xmltree.Document {
			return randomShardableDoc(rand.New(rand.NewSource(seed)))
		}
		unsharded := core.BuildCorpus(mk())
		// Random docs are tiny; query over every indexed keyword pair
		// sample plus cross-subtree pairs that only meet at the root.
		voc := unsharded.Index.Vocabulary()
		var queries []string
		for i := 0; i < len(voc); i += 2 {
			queries = append(queries, voc[i])
			if i+1 < len(voc) {
				queries = append(queries, voc[i]+" "+voc[i+1])
			}
		}
		for _, n := range []int{2, 3} {
			sc := Build(mk(), n)
			for _, opts := range []search.Options{
				{DistinctAnchors: true},
				{DistinctAnchors: true, Semantics: search.SemanticsELCA},
			} {
				for _, q := range queries {
					want, werr := search.NewEngine(unsharded.Doc, unsharded.Index, unsharded.Cls, opts).Search(search.Parse(q))
					got, gerr := sc.Search(q, opts)
					if (werr == nil) != (gerr == nil) {
						t.Fatalf("seed %d n=%d %q: errors differ: %v vs %v", seed, n, q, werr, gerr)
					}
					if werr != nil {
						continue
					}
					if len(want) != len(got) {
						t.Fatalf("seed %d n=%d sem=%d %q: %d results, want %d",
							seed, n, opts.Semantics, q, len(got), len(want))
					}
					for i := range want {
						w := xmltree.XMLString(want[i].Root)
						g := xmltree.XMLString(got[i].Root)
						if w != g {
							t.Fatalf("seed %d n=%d sem=%d %q result %d:\nwant %s\ngot  %s",
								seed, n, opts.Semantics, q, i, w, g)
						}
					}
				}
			}
		}
	}
}
