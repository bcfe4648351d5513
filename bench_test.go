package extract

// One testing.B benchmark per experiment. The paper's experiment tables
// themselves (paper-vs-measured) are internal/bench's, printed by
// `go test ./internal/bench -v`; these benchmarks time the code paths
// behind each experiment so regressions show up in `go test -bench`.

import (
	"bytes"
	"fmt"
	"testing"

	"extract/internal/baseline"
	"extract/internal/bench"
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

// figure1Fixture bundles the running example's artifacts for benchmarks.
type figure1Fixture struct {
	corpus *core.Corpus
	result *xmltree.Document
	stats  *features.Stats
	il     *ilist.IList
	kws    []string
}

func newFigure1Fixture() *figure1Fixture {
	c := core.BuildCorpus(gen.Figure1Corpus())
	result := gen.Figure1Result()
	stats := features.Collect(result.Root, c.Cls)
	kws := index.Tokenize(gen.Figure1Query)
	il := ilist.Build(result.Root, kws, c.Cls, c.Keys, stats)
	return &figure1Fixture{corpus: c, result: result, stats: stats, il: il, kws: kws}
}

// BenchmarkE1IList times IList construction (return entity, result key,
// dominant features) on the Figure 1 result.
func BenchmarkE1IList(b *testing.B) {
	fx := newFigure1Fixture()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		il := ilist.Build(fx.result.Root, fx.kws, fx.corpus.Cls, fx.corpus.Keys, fx.stats)
		if il.Len() != 12 {
			b.Fatalf("IList len = %d", il.Len())
		}
	}
}

// BenchmarkE2Snippet times end-to-end snippet generation (stats + IList +
// greedy selection) for the Figure 1 result at the Figure 2 bound.
func BenchmarkE2Snippet(b *testing.B) {
	fx := newFigure1Fixture()
	g := core.NewGenerator(fx.corpus)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		out := g.ForTree(fx.result, gen.Figure1Query, 13)
		if out.Snippet.Edges > 13 {
			b.Fatal("bound exceeded")
		}
	}
}

// BenchmarkE3Demo times the full Figure 5 demo pipeline: search plus one
// snippet per result.
func BenchmarkE3Demo(b *testing.B) {
	c := core.BuildCorpus(gen.Figure5Corpus())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		outs, err := core.Pipeline(c, gen.Figure5Query, gen.Figure5Bound, search.Options{DistinctAnchors: true})
		if err != nil || len(outs) != 2 {
			b.Fatalf("pipeline: %v, %d results", err, len(outs))
		}
	}
}

// BenchmarkE4TimeVsResultSize times snippet generation across result sizes
// (the E4 sweep).
func BenchmarkE4TimeVsResultSize(b *testing.B) {
	for _, size := range []int{100, 1000, 10_000, 100_000} {
		per := (size - 100) / 70
		if per < 1 {
			per = 1
		}
		doc := gen.Stores(gen.StoresConfig{Retailers: 1, StoresPerRetailer: 10, ClothesPerStore: per, Seed: 42})
		result := xmltree.NewDocument(xmltree.DeepCopy(doc.Root.ChildElement("retailer")))
		corpus := core.BuildCorpus(doc)
		g := core.NewGenerator(corpus)
		b.Run(fmt.Sprintf("nodes=%d", result.Len()), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				g.ForTree(result, "texas apparel retailer", 10)
			}
		})
	}
}

// BenchmarkE5TimeVsBound times snippet generation across bounds on a fixed
// ~10k-node result.
func BenchmarkE5TimeVsBound(b *testing.B) {
	doc := gen.Stores(gen.StoresConfig{Retailers: 1, StoresPerRetailer: 10, ClothesPerStore: 140, Seed: 42})
	result := xmltree.NewDocument(xmltree.DeepCopy(doc.Root.ChildElement("retailer")))
	corpus := core.BuildCorpus(doc)
	g := core.NewGenerator(corpus)
	for _, bound := range []int{4, 16, 64} {
		b.Run(fmt.Sprintf("bound=%d", bound), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				g.ForTree(result, "texas apparel retailer", bound)
			}
		})
	}
}

// BenchmarkE6Baselines times each snippet method on the Figure 1 result at
// bound 12 (the E6 quality comparison's code paths).
func BenchmarkE6Baselines(b *testing.B) {
	fx := newFigure1Fixture()
	b.Run("extract", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			selector.Greedy(fx.result, fx.il, fx.corpus.Cls, fx.stats, 12)
		}
	})
	b.Run("bfs", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			baseline.BFSPrefix(fx.result.Root, 12)
		}
	})
	b.Run("path", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			baseline.PathOnly(fx.result, fx.kws, 12)
		}
	})
	b.Run("text", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			baseline.TextWindow(fx.result.Root, fx.kws, 30)
		}
	})
}

// BenchmarkE7GreedyVsExact times greedy vs branch-and-bound selection on a
// small result (bound 5).
func BenchmarkE7GreedyVsExact(b *testing.B) {
	small := gen.Stores(gen.StoresConfig{Retailers: 2, StoresPerRetailer: 2, ClothesPerStore: 3, Seed: 9})
	corpus := core.BuildCorpus(small)
	result := xmltree.NewDocument(xmltree.DeepCopy(small.Root.ChildElement("retailer")))
	stats := features.Collect(result.Root, corpus.Cls)
	kws := []string{"texas", "apparel", "retailer"}
	il := ilist.Build(result.Root, kws, corpus.Cls, corpus.Keys, stats)
	b.Run("greedy", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			selector.Greedy(result, il, corpus.Cls, stats, 5)
		}
	})
	b.Run("exact", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			selector.Exact(result, il, stats, 5, selector.ExactConfig{})
		}
	})
}

// BenchmarkE8IndexBuild times corpus analysis across document sizes.
func BenchmarkE8IndexBuild(b *testing.B) {
	for _, size := range []int{1_000, 10_000, 100_000} {
		per := size / 140
		if per < 1 {
			per = 1
		}
		doc := gen.Stores(gen.StoresConfig{Retailers: 4, StoresPerRetailer: 5, ClothesPerStore: per, Seed: 2})
		b.Run(fmt.Sprintf("nodes=%d", doc.Len()), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				core.BuildCorpus(doc)
			}
		})
	}
}

// BenchmarkE9Distinguishability times the snippet-per-result pipeline on a
// many-result query (24 near-identical stores).
func BenchmarkE9Distinguishability(b *testing.B) {
	t := bench.E9Distinguishability(24) // warm path validation
	if len(t.Rows) != 3 {
		b.Fatalf("unexpected table: %v", t.Rows)
	}
	doc := gen.Stores(gen.StoresConfig{Retailers: 1, StoresPerRetailer: 24, ClothesPerStore: 4, Seed: 5})
	corpus := core.BuildCorpus(doc)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.Pipeline(corpus, "store texas", 6, search.Options{DistinctAnchors: true}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkQueryEndToEnd times the full facade pipeline — keyword search
// (packed SLCA), result construction, and one snippet per result — across
// corpus sizes, the headline number the flat-array hot path serves.
func BenchmarkQueryEndToEnd(b *testing.B) {
	for _, size := range []int{1_000, 10_000, 100_000} {
		per := size / 140
		if per < 1 {
			per = 1
		}
		doc := gen.Stores(gen.StoresConfig{Retailers: 4, StoresPerRetailer: 5, ClothesPerStore: per, Seed: 3})
		// The query cache would answer every iteration after the first;
		// this benchmark times evaluation, so serve with the cache off.
		corpus := FromDocument(doc, nil, WithQueryCache(0))
		b.Run(fmt.Sprintf("nodes=%d", doc.Len()), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				hits, err := corpus.Query("texas apparel retailer", 10)
				if err != nil {
					b.Fatal(err)
				}
				if len(hits) == 0 {
					b.Fatal("no hits")
				}
			}
		})
	}
}

// BenchmarkE10SLCA times SLCA and ELCA evaluation on a ~100k-node corpus.
func BenchmarkE10SLCA(b *testing.B) {
	doc := gen.Stores(gen.StoresConfig{Retailers: 4, StoresPerRetailer: 5, ClothesPerStore: 700, Seed: 3})
	ix := index.Build(doc)
	qs := workload.Generate(doc, workload.Config{Queries: 1, Keywords: 3, Seed: 7})
	if len(qs) == 0 {
		b.Fatal("no workload query")
	}
	lists := make([][]*xmltree.Node, len(qs[0].Keywords))
	for i, kw := range qs[0].Keywords {
		lists[i] = ix.Nodes(kw)
	}
	b.Run("slca", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			search.SLCA(lists...)
		}
	})
	b.Run("elca", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			search.ELCA(lists...)
		}
	})
}

// BenchmarkE12SelectorStrategies times the three instance-selection
// strategies on the Figure 1 result at bound 10 (exact is bounded to a
// small instance cap to stay tractable).
func BenchmarkE12SelectorStrategies(b *testing.B) {
	fx := newFigure1Fixture()
	b.Run("rank-order", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			selector.Greedy(fx.result, fx.il, fx.corpus.Cls, fx.stats, 10)
		}
	})
	b.Run("ratio", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			selector.GreedyRatio(fx.result, fx.il, fx.stats, 10)
		}
	})
}

// BenchmarkE13Persistence times binary save and load of an analyzed
// ~10k-node corpus against re-analysis from XML.
func BenchmarkE13Persistence(b *testing.B) {
	doc := gen.Stores(gen.StoresConfig{Retailers: 4, StoresPerRetailer: 5, ClothesPerStore: 70, Seed: 4})
	corpus := core.BuildCorpus(doc)
	var buf bytes.Buffer
	if err := persist.Save(&buf, corpus); err != nil {
		b.Fatal(err)
	}
	data := buf.Bytes()
	xml := xmltree.XMLString(doc.Root)
	b.Run("save", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			var w bytes.Buffer
			if err := persist.Save(&w, corpus); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("load", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := persist.Load(bytes.NewReader(data)); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("reanalyze", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			parsed, err := xmltree.ParseString(xml)
			if err != nil {
				b.Fatal(err)
			}
			core.BuildCorpus(parsed)
		}
	})
}

// BenchmarkE11Dominance times feature collection plus both rankings
// (dominance vs raw frequency) on the Figure 1 result.
func BenchmarkE11Dominance(b *testing.B) {
	fx := newFigure1Fixture()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		stats := features.Collect(fx.result.Root, fx.corpus.Cls)
		if len(stats.Dominant()) == 0 || len(baseline.FrequencyRank(stats)) == 0 {
			b.Fatal("empty rankings")
		}
	}
}

// BenchmarkSnippetRender times rendering one served page: every snippet of
// one query's hits (bound 10, 25 results, as the benchmark module serves
// them) as XML, highlighted HTML, inline and ASCII, with allocations. A
// cache hit costs little more than this, so it is the render layer's
// before/after.
func BenchmarkSnippetRender(b *testing.B) {
	doc := gen.Stores(gen.StoresConfig{Retailers: 16, StoresPerRetailer: 10, ClothesPerStore: 55, Cities: 200, CategoryCount: 300, Skew: 1.1, Seed: 1})
	corpus := FromDocument(doc, nil, WithQueryCache(0))
	defer corpus.Close()
	// The page: the query with the most hits among the first 100 of a pool.
	var page []*Snippet
	for _, q := range workload.Generate(doc, workload.Config{Queries: 100, Keywords: 2, Seed: 7}) {
		hits, err := corpus.Query(q.Text(), 10, WithMaxResults(25))
		if err != nil {
			b.Fatal(err)
		}
		if len(hits) > len(page) {
			page = page[:0]
			for _, h := range hits {
				page = append(page, h.Snippet)
			}
		}
	}
	for _, r := range []struct {
		name   string
		render func(*Snippet) string
	}{
		{"XML", (*Snippet).XML},
		{"HTML", (*Snippet).HTML},
		{"Inline", (*Snippet).Inline},
		{"ASCII", (*Snippet).Render},
	} {
		b.Run(fmt.Sprintf("%s/snippets=%d", r.name, len(page)), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				for _, s := range page {
					r.render(s)
				}
			}
		})
	}
}
