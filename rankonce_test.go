package extract

import (
	"context"
	"fmt"
	"math"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"
	"testing"

	"extract/internal/gen"
	"extract/internal/rank"
	"extract/internal/search"
	"extract/internal/serve"
	"extract/internal/workload"
	"extract/xmltree"
)

// TestWarmQueryAllocations pins what a warm Query allocates through the
// facade, reading every hit's snippet XML and result key as a response
// does: the serving layer's warm hit (TestWarmHitAllocations) plus the
// caller's hit slice and its three slabs — the same count at 1, 5 and 25
// hits, ranked or not. The snippet XML is the entry's, rendered once, and a
// ranked hit replays the entry's ranking. The trace ring is primed past its
// first lap, so sampled slots reuse their capacity.
func TestWarmQueryAllocations(t *testing.T) {
	if raceDetector {
		t.Skip("the race detector's own allocations make counts inexact")
	}
	doc := gen.Stores(gen.StoresConfig{Retailers: 4, StoresPerRetailer: 8, ClothesPerStore: 3, Seed: 5})
	c, err := LoadString(xmltree.XMLString(doc.Root), WithShards(2))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	ctx := context.Background()
	const q, bound = "store", 6
	read := 0
	warm := func(n int, opts []SearchOption) {
		hits, err := c.QueryContext(ctx, q, bound, opts...)
		if err != nil || len(hits) != n {
			t.Fatalf("%d hits, %v; want %d", len(hits), err, n)
		}
		for _, h := range hits {
			read += len(h.Snippet.XML()) + len(h.Snippet.ResultKey())
		}
	}
	for range traceRingLap {
		warm(1, []SearchOption{WithMaxResults(1)})
	}
	// Pinned exactly: more is a regression on every warm hit, fewer means
	// the pin should move down with the change that earned it.
	const want = 12
	for _, n := range []int{1, 5, 25} {
		for _, ranked := range []bool{false, true} {
			opts := []SearchOption{WithMaxResults(n)}
			if ranked {
				opts = append(opts, WithRanking())
			}
			warm(n, opts) // the miss, or the entry's first ranked read
			if got := testing.AllocsPerRun(200, func() { warm(n, opts) }); got != want {
				t.Errorf("a warm query of %d hits (ranked %v) allocates %v objects, want %d", n, ranked, got, want)
			}
		}
	}
	if read == 0 {
		t.Fatal("no snippet bytes read")
	}
}

// TestColdQueryAllocations pins what a cold Query allocates (cache off, 4
// shards), reading every hit's snippet XML as a response does: a function of
// the hit count and the bound, not of how large the results are. Two corpora
// whose store results differ more than tenfold in node count allocate the
// same count at 1, 5 and 25 hits, ranked or not, and no more than
// coldAllocBase + coldAllocPerHit·hits. A result's matches are runs of the
// query's posting lists, a served snippet's statistics and its IList's set
// live in per-worker scratch, a served snippet is its XML and itself (no
// record is written), and tokens rebuilt for a lookup reuse a buffer:
// nothing on the path allocates per node, per item or per feature.
func TestColdQueryAllocations(t *testing.T) {
	if raceDetector {
		t.Skip("the race detector's own allocations make counts inexact")
	}
	// At 4 shards round one yields hits, and only the merge's winners are
	// built, each shard's from one slab: the slope is a hit's served snippet
	// and its share of the slabs, under three objects, however many results
	// the cut drops (TestDroppedResultsAreNotBuilt). The base is the measured
	// count of a ranked query of 1 hit (72 objects) less the slope: the query
	// is parsed once, by the serving layer.
	const coldAllocBase, coldAllocPerHit = 69, 3
	const q, bound = "store", 6
	ctx := context.Background()
	counts := make(map[string]float64)
	nodes := make([]int, 2)
	for ci, clothes := range []int{3, 60} {
		doc := gen.Stores(gen.StoresConfig{Retailers: 4, StoresPerRetailer: 8, ClothesPerStore: clothes, Seed: 5})
		nodes[ci] = doc.Root.Descendant("retailer", "store").NodeCount()
		c, err := LoadString(xmltree.XMLString(doc.Root), WithShards(4), WithQueryCache(0))
		if err != nil {
			t.Fatal(err)
		}
		for _, n := range []int{1, 5, 25} {
			for _, ranked := range []bool{false, true} {
				opts := []SearchOption{WithMaxResults(n)}
				if ranked {
					opts = append(opts, WithRanking())
				}
				read := 0
				query := func() {
					hits, err := c.QueryContext(ctx, q, bound, opts...)
					if err != nil || len(hits) != n {
						t.Fatalf("%d hits, %v; want %d", len(hits), err, n)
					}
					for _, h := range hits {
						read += len(h.Snippet.XML())
					}
				}
				for range 20 { // the pooled scratch grows to the results
					query()
				}
				got := testing.AllocsPerRun(100, query)
				t.Logf("%d-node results, %d hits (ranked %v): %v objects", nodes[ci], n, ranked, got)
				if read == 0 {
					t.Fatal("no snippet bytes read")
				}
				key := strconv.Itoa(n) + "/" + strconv.FormatBool(ranked)
				if ci == 0 {
					counts[key] = got
				} else if got != counts[key] {
					t.Errorf("%d hits (ranked %v): %v objects on %d-node results, %v on %d-node results",
						n, ranked, got, nodes[1], counts[key], nodes[0])
				}
				if limit := float64(coldAllocBase + coldAllocPerHit*n); got > limit {
					t.Errorf("a cold query of %d hits (ranked %v) allocates %v objects, ceiling %v", n, ranked, got, limit)
				}
			}
		}
		c.Close()
	}
	if nodes[1] < 10*nodes[0] {
		t.Fatalf("results of %d and %d nodes: not tenfold apart", nodes[0], nodes[1])
	}
}

// TestDroppedResultsAreNotBuilt: a result the merge's cut drops is never
// built. Four shards each hold one region of the document below; the first
// region alone holds more results than the bound, so the answer is its
// first results whatever the other regions hold. The other three regions hold
// one result each in one corpus and ten each in the other (the rest of their
// shops match nothing, so the shards stay the same size), and a bounded query
// allocates the same number of objects on both: the other shards' hits are
// positions, one slice a shard, and none of them becomes a Result.
func TestDroppedResultsAreNotBuilt(t *testing.T) {
	if raceDetector {
		t.Skip("the race detector's own allocations make counts inexact")
	}
	const shops, bound = 12, 10
	region := func(matching int) string {
		var b strings.Builder
		b.WriteString("<region>")
		for i := range shops {
			tag := "none"
			if i < matching {
				tag = "item"
			}
			fmt.Fprintf(&b, "<shop><name>s%02d</name><tag>%s</tag></shop>", i, tag)
		}
		b.WriteString("</region>")
		return b.String()
	}
	ctx := context.Background()
	var counts []float64
	for _, others := range []int{1, 10} {
		xml := "<regions>" + region(shops) + strings.Repeat(region(others), 3) + "</regions>"
		c, err := LoadString(xml, WithShards(4), WithQueryCache(0))
		if err != nil {
			t.Fatal(err)
		}
		query := func() {
			hits, err := c.QueryContext(ctx, "item", 6, WithMaxResults(bound))
			if err != nil || len(hits) != bound {
				t.Fatalf("%d hits, %v; want %d", len(hits), err, bound)
			}
			for i, h := range hits {
				if key := h.Snippet.XML(); !strings.Contains(key, fmt.Sprintf("s%02d", i)) {
					t.Fatalf("hit %d is not the first region's shop %d: %s", i, i, key)
				}
			}
		}
		for range 20 { // the pooled scratch grows to the results
			query()
		}
		got := testing.AllocsPerRun(100, query)
		t.Logf("%d results in each other region: %v objects", others, got)
		counts = append(counts, got)
		c.Close()
	}
	if counts[0] != counts[1] {
		t.Errorf("a bounded query allocates %v objects when the shards past the cut hold 1 result each, %v when they hold 10", counts[0], counts[1])
	}
}

// traceRingLap is enough queries to fill every slot of the serving layer's
// trace ring once (one sampled query in 16, 64 slots, 16 slowest).
const traceRingLap = 16*64 + 16

// TestRankedReadsMatchParentOrder: a ranked Query and a ranked Search read
// their cache entries through the ranking each entry computes once; on the
// stores fixture at 1 and 4 shards, SLCA and ELCA, local and routed, both
// return the order and bit-identical scores of scoring every result of the
// unranked answer and sorting stably by descending score — what the facade
// computed per call before — and of rank.Scorer.Sort over that answer.
// Each ranked hit keeps its own result's snippet.
func TestRankedReadsMatchParentOrder(t *testing.T) {
	doc := gen.Stores(gen.StoresConfig{Retailers: 4, StoresPerRetailer: 3, ClothesPerStore: 5, Seed: 11})
	xml := xmltree.XMLString(doc.Root)
	queries := []string{"store texas", "clothes", `"brook brothers" store`}
	for _, wq := range workload.Generate(doc, workload.Config{Queries: 6, Keywords: 2, Seed: 7}) {
		queries = append(queries, wq.Text())
	}
	ctx := context.Background()
	for _, shards := range []int{1, 4} {
		local, err := LoadString(xml, WithShards(shards))
		if err != nil {
			t.Fatal(err)
		}
		defer local.Close()
		dir := t.TempDir()
		if err := local.SaveSnapshot(dir); err != nil {
			t.Fatal(err)
		}
		addrs, _ := startShardTier(t, dir, min(shards, 2), 1)
		routed, err := Connect(dir, addrs)
		if err != nil {
			t.Fatal(err)
		}
		defer routed.Close()
		for side, c := range map[string]*Corpus{"local": local, "routed": routed} {
			for _, mode := range [][]SearchOption{nil, {WithELCA()}} {
				for _, q := range queries {
					name := side + "/" + q
					plainQ := must(c.Query(q, 8, mode...))
					rankedQ := must(c.Query(q, 8, slices.Concat(mode, []SearchOption{WithRanking()})...))
					plainS := must(c.Search(q, mode...))
					rankedS := must(c.Search(q, slices.Concat(mode, []SearchOption{WithRanking()})...))
					if len(rankedQ) != len(plainQ) || len(plainS) != len(plainQ) || len(rankedS) != len(plainQ) {
						t.Fatalf("%d shards, %s: %d/%d hits, %d/%d results", shards, name, len(plainQ), len(rankedQ), len(plainS), len(rankedS))
					}
					keys := search.Parse(q).Keys
					scorer, err := c.data.Load().backend().Scorer(ctx, keys)
					if err != nil {
						t.Fatal(err)
					}
					rs := make([]*search.Result, len(plainQ))
					for i, h := range plainQ {
						rs[i] = h.Result.r
					}
					order, scores := parentRank(scorer, rs, keys)
					sorted := slices.Clone(rs)
					sortScores := scorer.Sort(sorted, keys)
					for i, j := range order {
						switch {
						case rankedQ[i].Result.r != rs[j] || rankedQ[i].Snippet.g != plainQ[j].Snippet.g:
							t.Fatalf("%d shards, %s: ranked hit %d is not unranked hit %d", shards, name, i, j)
						case rankedS[i].r != plainS[j].r:
							t.Fatalf("%d shards, %s: ranked result %d is not unranked result %d", shards, name, i, j)
						case sorted[i] != rs[j]:
							t.Fatalf("%d shards, %s: Scorer.Sort puts result %d at %d", shards, name, j, i)
						}
						for what, got := range map[string]float64{"Query": rankedQ[i].Result.Score(), "Search": rankedS[i].Score(), "Sort": sortScores[i]} {
							if math.Float64bits(got) != math.Float64bits(scores[i]) {
								t.Fatalf("%d shards, %s: %s score %d is %v, want %v", shards, name, what, i, got, scores[i])
							}
						}
						if plainQ[i].Result.Score() != 0 || plainS[i].Score() != 0 {
							t.Fatalf("%d shards, %s: an unranked result is scored", shards, name)
						}
					}
				}
			}
		}
	}
}

// parentRank orders results as the facade did on every ranked call before
// rankings were kept: score each, then a stable sort by descending score.
// It returns the ranked indexes into rs and their scores.
func parentRank(scorer *rank.Scorer, rs []*search.Result, keys []string) ([]int, []float64) {
	byIndex := make([]float64, len(rs))
	order := make([]int, len(rs))
	for i, r := range rs {
		byIndex[i], order[i] = scorer.Score(r, keys), i
	}
	sort.SliceStable(order, func(a, b int) bool { return byIndex[order[a]] > byIndex[order[b]] })
	scores := make([]float64, len(rs))
	for i, j := range order {
		scores[i] = byIndex[j]
	}
	return order, scores
}

// TestRoutedRankedHitsFetchNoStatistics: once a routed answer's entry holds
// its ranking, further ranked hits on it make no stats call.
func TestRoutedRankedHitsFetchNoStatistics(t *testing.T) {
	_, rc := connectStores(t)
	const q, bound = "store texas", 8
	first := must(rc.Query(q, bound, WithRanking()))
	if len(first) == 0 {
		t.Fatal("no hits")
	}
	must(rc.Query(q, bound, WithRanking())) // the first ranked hit
	cached, _ := rc.QueryCacheStats()
	stats := remoteCalls(t, rc, "stats")
	for range 20 {
		hits := must(rc.Query(q, bound, WithRanking()))
		if renderRanked(hits) != renderRanked(first) {
			t.Fatal("a ranked hit answered differently from the first ranked read")
		}
	}
	if st, _ := rc.QueryCacheStats(); st.Hits != cached.Hits+20 {
		t.Fatalf("%d cache hits, want 20", st.Hits-cached.Hits)
	}
	if n := remoteCalls(t, rc, "stats") - stats; n != 0 {
		t.Fatalf("20 ranked hits made %d stats calls, want 0", n)
	}
}

// renderRanked describes a ranked answer: each hit's snippet and score.
func renderRanked(hits []*Hit) string {
	b := []byte{}
	for _, h := range hits {
		b = append(b, h.Snippet.XML()...)
		b = append(b, h.Snippet.ResultKey()...)
		b = strconv.AppendFloat(b, h.Result.Score(), 'g', -1, 64)
	}
	return string(b)
}

// TestFirstRankedReadsAgree: eight goroutines making the first ranked read
// of one cached entry at once, local and routed, all get one answer — the
// ranking the entry then keeps and replays. Run under -race in CI.
func TestFirstRankedReadsAgree(t *testing.T) {
	local, rc := connectStores(t)
	const q, bound, readers = "store texas", 8, 8
	for side, c := range map[string]*Corpus{"local": local, "routed": rc} {
		plain := must(c.Query(q, bound))
		got := make([][]*Hit, readers)
		start := make(chan struct{})
		var wg sync.WaitGroup
		for i := range readers {
			wg.Add(1)
			go func() {
				defer wg.Done()
				<-start
				hits, err := c.Query(q, bound, WithRanking())
				if err != nil {
					t.Error(err)
				}
				got[i] = hits
			}()
		}
		close(start)
		wg.Wait()
		kept, err := plain[0].Result.v.Ranked(func([]*search.Result) (*serve.Ranking, error) {
			t.Fatalf("%s: the entry kept no ranking", side)
			return nil, nil
		})
		if err != nil {
			t.Fatal(err)
		}
		for i, hits := range got {
			for k, h := range hits {
				j, score := kept.At(k)
				if h.Result.r != plain[j].Result.r || h.Result.Score() != score {
					t.Fatalf("%s: reader %d's hit %d is not the kept ranking's", side, i, k)
				}
			}
		}
	}
}

// TestSnippetXMLIsTheTreeRendered: a snippet's XML is rendered once, when it
// is made, and is byte for byte its tree serialized — for every hit of a
// query, local and routed, for Corpus.Snippet under either selector and for
// SnippetForTree.
func TestSnippetXMLIsTheTreeRendered(t *testing.T) {
	local, rc := connectStores(t)
	check := func(what string, s *Snippet) {
		t.Helper()
		if want := xmltree.XMLString(s.Root()); s.XML() != want || want == "" {
			t.Fatalf("%s: XML() is %q, the tree renders %q", what, s.XML(), want)
		}
	}
	for _, q := range []string{"store texas", "clothes", "retailer"} {
		for side, c := range map[string]*Corpus{"local": local, "routed": rc} {
			for _, ranked := range [][]SearchOption{nil, {WithRanking()}} {
				hits := must(c.Query(q, 6, ranked...))
				if len(hits) == 0 {
					t.Fatalf("%s %q: no hits", side, q)
				}
				for _, h := range hits {
					check(side+" hit", h.Snippet)
				}
			}
		}
		for _, r := range must(local.Search(q)) {
			check("Corpus.Snippet", must(local.Snippet(r, q, 6)))
			check("Corpus.Snippet, exact", must(local.Snippet(r, q, 6, WithExactSelection())))
			tree, err := r.Root()
			if err != nil {
				t.Fatal(err)
			}
			check("SnippetForTree", local.SnippetForTree(xmltree.NewDocument(xmltree.DeepCopy(tree)), q, 6))
		}
	}
}
