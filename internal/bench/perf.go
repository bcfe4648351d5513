package bench

import (
	"fmt"
	"strings"
	"time"

	"extract/internal/core"
	"extract/internal/gen"
	"extract/internal/index"
	"extract/internal/search"
	"extract/internal/workload"
	"extract/xmltree"
)

// resultOfSize builds a single-retailer query result with roughly the given
// node count by scaling clothes per store (stores schema, 10 stores).
func resultOfSize(nodes int) *xmltree.Document {
	return xmltree.NewDocument(xmltree.DeepCopy(resultSourceOfSize(nodes).Root.ChildElement("retailer")))
}

// resultSourceOfSize builds the document resultOfSize copies its result out
// of: one retailer, the result, under the root.
func resultSourceOfSize(nodes int) *xmltree.Document {
	// Each clothes subtree is ~7 nodes; 10 stores add ~80.
	per := (nodes - 100) / (10 * 7)
	if per < 1 {
		per = 1
	}
	return gen.Stores(gen.StoresConfig{
		Retailers: 1, StoresPerRetailer: 10, ClothesPerStore: per, Seed: 42,
	})
}

// StoresDocOfSize builds a stores document with roughly the given node
// count — the shared corpus generator of the perf trajectories (exported
// for the reloadperf subpackage, which measures through the facade).
func StoresDocOfSize(nodes int, seed int64) *xmltree.Document {
	return storesCorpusOfSize(nodes, seed)
}

// storesCorpusOfSize builds a corpus with roughly the given node count.
func storesCorpusOfSize(nodes int, seed int64) *xmltree.Document {
	per := nodes / (4 * 5 * 7)
	if per < 1 {
		per = 1
	}
	return gen.Stores(gen.StoresConfig{
		Retailers: 4, StoresPerRetailer: 5, ClothesPerStore: per, Seed: seed,
	})
}

const perfQuery = "texas apparel retailer"

// E4TimeVsResultSize measures snippet generation time (feature collection +
// IList + greedy selection) against the query result size.
func E4TimeVsResultSize(sizes []int) *Table {
	if len(sizes) == 0 {
		sizes = []int{100, 1000, 10_000, 100_000}
	}
	t := &Table{
		ID:      "E4",
		Title:   "Snippet generation time vs query result size (bound 10)",
		Columns: []string{"result nodes", "features", "IList items", "covered", "ms/snippet"},
	}
	for _, size := range sizes {
		result := resultOfSize(size)
		corpus := core.BuildCorpus(storesCorpusOfSize(size, 1))
		g := core.NewGenerator(corpus)
		// Warm up once, then time the repetitions.
		out := g.ForTree(result, perfQuery, 10)
		reps := repsFor(size)
		start := time.Now()
		for i := 0; i < reps; i++ {
			out = g.ForTree(result, perfQuery, 10)
		}
		ms := time.Since(start).Seconds() * 1000 / float64(reps)
		t.AddRow(result.Len(), len(out.Stats.Features()), out.IList.Len(),
			len(out.Snippet.Covered), fmt.Sprintf("%.3f", ms))
	}
	t.Notes = append(t.Notes,
		"expected shape: near-linear growth in result size (one stats pass + greedy over instance lists)")
	return t
}

func repsFor(size int) int {
	switch {
	case size >= 100_000:
		return 3
	case size >= 10_000:
		return 10
	default:
		return 50
	}
}

// E5TimeVsBound measures snippet generation time and coverage against the
// size bound on a fixed ~10k-node result.
func E5TimeVsBound(bounds []int) *Table {
	if len(bounds) == 0 {
		bounds = []int{4, 8, 16, 32, 64}
	}
	result := resultOfSize(10_000)
	corpus := core.BuildCorpus(storesCorpusOfSize(10_000, 1))
	g := core.NewGenerator(corpus)

	t := &Table{
		ID:      "E5",
		Title:   "Snippet generation time vs size bound (~10k-node result)",
		Columns: []string{"bound", "edges used", "covered", "of", "ms/snippet"},
	}
	for _, b := range bounds {
		out := g.ForTree(result, perfQuery, b)
		reps := 10
		start := time.Now()
		for i := 0; i < reps; i++ {
			out = g.ForTree(result, perfQuery, b)
		}
		ms := time.Since(start).Seconds() * 1000 / float64(reps)
		t.AddRow(b, out.Snippet.Edges, len(out.Snippet.Covered), out.IList.Len(),
			fmt.Sprintf("%.3f", ms))
	}
	t.Notes = append(t.Notes,
		"expected shape: time nearly flat in the bound (dominated by the stats pass); coverage saturates once the IList fits")
	return t
}

// E8IndexBuild measures corpus analysis (parse + classify + key mining +
// index) against document size.
func E8IndexBuild(sizes []int) *Table {
	if len(sizes) == 0 {
		sizes = []int{1_000, 10_000, 100_000, 1_000_000}
	}
	t := &Table{
		ID:      "E8",
		Title:   "Corpus analysis cost vs document size",
		Columns: []string{"nodes", "parse ms", "analyze ms", "keywords", "postings"},
	}
	for _, size := range sizes {
		doc := storesCorpusOfSize(size, 2)
		xml := xmltree.XMLString(doc.Root)
		start := time.Now()
		parsed, err := xmltree.ParseString(xml)
		parseMS := time.Since(start).Seconds() * 1000
		if err != nil {
			t.Notes = append(t.Notes, "parse error: "+err.Error())
			continue
		}
		start = time.Now()
		corpus := core.BuildCorpus(parsed)
		analyzeMS := time.Since(start).Seconds() * 1000
		t.AddRow(parsed.Len(), fmt.Sprintf("%.1f", parseMS), fmt.Sprintf("%.1f", analyzeMS),
			corpus.Index.DistinctKeywords(), corpus.Index.TotalPostings())
	}
	t.Notes = append(t.Notes, "expected shape: linear in document size")
	return t
}

// E10SLCA measures keyword query evaluation against document size and
// keyword count, and checks SLCA against the brute-force definition on the
// smallest size.
func E10SLCA(sizes []int) *Table {
	if len(sizes) == 0 {
		sizes = []int{1_000, 10_000, 100_000}
	}
	t := &Table{
		ID:      "E10",
		Title:   "Search substrate: SLCA/ELCA time vs document size",
		Columns: []string{"nodes", "keywords", "results", "slca ms", "elca ms"},
	}
	for _, size := range sizes {
		doc := storesCorpusOfSize(size, 3)
		ix := index.Build(doc)
		queries := workload.Generate(doc, workload.Config{Queries: 5, Keywords: 3, Seed: 7})
		for qi, q := range queries {
			if qi > 0 && size >= 100_000 {
				break // one query at the largest size keeps runs short
			}
			lists := make([][]*xmltree.Node, len(q.Keywords))
			ok := true
			for i, kw := range q.Keywords {
				lists[i] = ix.Nodes(kw)
				if len(lists[i]) == 0 {
					ok = false
				}
			}
			if !ok {
				continue
			}
			reps := 20
			start := time.Now()
			var slcas []*xmltree.Node
			for i := 0; i < reps; i++ {
				slcas = search.SLCA(lists...)
			}
			slcaMS := time.Since(start).Seconds() * 1000 / float64(reps)
			start = time.Now()
			for i := 0; i < reps; i++ {
				search.ELCA(lists...)
			}
			elcaMS := time.Since(start).Seconds() * 1000 / float64(reps)
			t.AddRow(doc.Len(), strings.Join(q.Keywords, " "), len(slcas),
				fmt.Sprintf("%.3f", slcaMS), fmt.Sprintf("%.3f", elcaMS))
			if size == sizes[0] {
				brute := search.SLCABrute(doc, lists...)
				if len(brute) != len(slcas) {
					t.Notes = append(t.Notes, fmt.Sprintf(
						"MISMATCH vs brute force on %q: %d vs %d", q.Text(), len(slcas), len(brute)))
				}
			}
		}
	}
	t.Notes = append(t.Notes,
		"expected shape: SLCA scales with posting list sizes (sub-document), ELCA with document size")
	return t
}
