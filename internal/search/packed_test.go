package search

import (
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"

	"extract/internal/gen"
	"extract/internal/index"
	"extract/internal/workload"
	"extract/xmltree"
)

// Property: the packed SLCA agrees with both the brute-force definition and
// the retained baseline implementation on random trees and keyword lists.
func TestSLCAPackedMatchesBrute(t *testing.T) {
	check := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		doc := randomDoc(r, seed%2 == 0)
		ix := index.Build(doc)
		voc := ix.Vocabulary()
		if len(voc) == 0 {
			return true
		}
		k := 1 + r.Intn(4)
		lists := make([][]*xmltree.Node, k)
		packed := make([]*index.PostingList, k)
		for i := 0; i < k; i++ {
			kw := voc[r.Intn(len(voc))]
			lists[i] = ix.Nodes(kw)
			packed[i] = ix.List(kw)
		}
		fast := SLCAPacked(ix, packed...)
		brute := SLCABrute(doc, lists...)
		base := SLCABaseline(lists...)
		if !sameNodes(fast, brute) {
			t.Logf("packed %v != brute %v", labels(fast), labels(brute))
			return false
		}
		if !sameNodes(fast, base) {
			t.Logf("packed %v != baseline %v", labels(fast), labels(base))
			return false
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 400}); err != nil {
		t.Error(err)
	}
}

// Property: ELCA agrees with the whole-document exclusive counting baseline
// on random trees and keyword lists.
func TestELCAMatchesBaseline(t *testing.T) {
	check := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		doc := randomDoc(r, seed%2 == 0)
		ix := index.Build(doc)
		voc := ix.Vocabulary()
		if len(voc) == 0 {
			return true
		}
		k := 1 + r.Intn(4)
		lists := make([][]*xmltree.Node, k)
		for i := 0; i < k; i++ {
			lists[i] = ix.Nodes(voc[r.Intn(len(voc))])
		}
		fast := ELCA(lists...)
		base := ELCABaseline(lists...)
		if !sameNodes(fast, base) {
			t.Logf("elca %v != baseline %v", labels(fast), labels(base))
			return false
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 400}); err != nil {
		t.Error(err)
	}
}

// The packed paths must also agree with brute force on realistic generated
// corpora and workload queries, not just tiny random trees.
func TestPackedAgainstBruteOnGenCorpora(t *testing.T) {
	docs := []*xmltree.Document{
		gen.Stores(gen.StoresConfig{Retailers: 3, StoresPerRetailer: 4, ClothesPerStore: 5, Seed: 11}),
		gen.Auctions(gen.AuctionsConfig{People: 8, Auctions: 6, Items: 10, Seed: 12}),
		gen.Movies(gen.MoviesConfig{Movies: 12, Seed: 13}),
	}
	for di, doc := range docs {
		ix := index.Build(doc)
		qs := workload.Generate(doc, workload.Config{Queries: 8, Keywords: 3, Seed: int64(20 + di)})
		for qi, q := range qs {
			lists := make([][]*xmltree.Node, 0, len(q.Keywords))
			packed := make([]*index.PostingList, 0, len(q.Keywords))
			for _, kw := range q.Keywords {
				if l := ix.List(kw); l.Len() > 0 {
					lists = append(lists, l.Nodes)
					packed = append(packed, l)
				}
			}
			if len(lists) == 0 {
				continue
			}
			name := fmt.Sprintf("doc%d/query%d", di, qi)
			if got, want := SLCAPacked(ix, packed...), SLCABrute(doc, lists...); !sameNodes(got, want) {
				t.Errorf("%s: slca %v, brute %v", name, labels(got), labels(want))
			}
			got, _ := ELCAPacked(ix, packed...)
			if want := ELCABaseline(lists...); !sameNodes(got, want) {
				t.Errorf("%s: elca %v, baseline %v", name, labels(got), labels(want))
			}
		}
	}
}

// Regression for an earlier ancestor filter: its repeat-until-stable ancestor
// removal was O(n²) on chains where each candidate is an ancestor of the
// next. On a deep ancestor chain with a match at every level, SLCA must
// return only the deepest node, and in linear candidate time.
func TestSLCADeepAncestorChain(t *testing.T) {
	const depth = 5000
	root := xmltree.Elem("a")
	cur := root
	for i := 1; i < depth; i++ {
		next := xmltree.Elem("a")
		xmltree.Append(cur, next)
		cur = next
	}
	doc := xmltree.NewDocument(root)
	ix := index.Build(doc)
	list := ix.Nodes("a")
	if len(list) != depth {
		t.Fatalf("chain matches = %d, want %d", len(list), depth)
	}

	got := SLCA(list)
	if len(got) != 1 || got[0] != cur {
		t.Fatalf("slca on %d-deep chain = %d nodes (want only the deepest)", depth, len(got))
	}

	// Two keyword lists over the same chain reduce the same way.
	got = SLCA(list, list)
	if len(got) != 1 || got[0] != cur {
		t.Fatalf("two-list slca on chain = %d nodes", len(got))
	}

	// And the result agrees with the baseline semantics.
	if want := SLCABaseline(list); !sameNodes(got, want) {
		t.Fatalf("chain slca disagrees with baseline: %d vs %d", len(got), len(want))
	}
}

// One ELCA scratch must serve evaluations of different keyword counts and
// corpora without leaking state between them, and in steady state allocate
// nothing but the set it returns.
func TestELCAPoolReuse(t *testing.T) {
	small, large := index.Build(parse(t, corpus)), entities(500, map[string]int{"a": 1, "b": 3, "rare": 50})
	sc := &lcaScratch{}
	eval := func(ix *index.Index, kws ...string) []*xmltree.Node {
		lists, packed := make([][]*xmltree.Node, len(kws)), make([]*index.PostingList, len(kws))
		for i, kw := range kws {
			lists[i], packed[i] = ix.Nodes(kw), ix.List(kw)
		}
		got := sc.eval(ix, packed, make([]bool, len(kws)))
		if want := ELCABaseline(lists...); !sameNodes(got, want) {
			t.Fatalf("%v: elca %v, want %v", kws, labels(got), labels(want))
		}
		return got
	}
	for i := 0; i < 5; i++ {
		eval(small, "texas", "apparel")
		eval(large, "a", "rare", "b")
		eval(small, "store")
		eval(large, "b")
		eval(small, "texas", "apparel", "retailer")
	}
	packed, free := []*index.PostingList{large.List("a"), large.List("b"), large.List("rare")}, make([]bool, 3)
	if allocs := testing.AllocsPerRun(20, func() { sc.eval(large, packed, free) }); allocs > 1 {
		t.Errorf("steady-state evaluation allocates %v times, want only the returned set", allocs)
	}
}

// A node repeated within one match list must accumulate counts, not become
// a second virtual node (regression: the k-way merge must consume
// consecutive duplicates like the baseline's matchOf map did).
func TestELCADuplicateListEntries(t *testing.T) {
	doc := parse(t, `<r><a><x/><y/></a><x/><y/></r>`)
	ix := index.Build(doc)
	xs, ys := ix.Nodes("x"), ix.Nodes("y")
	dup := func(l []*xmltree.Node) []*xmltree.Node {
		var out []*xmltree.Node
		for _, n := range l {
			out = append(out, n, n)
		}
		return out
	}
	got := ELCA(dup(xs), ys)
	want := ELCABaseline(dup(xs), ys)
	if !sameNodes(got, want) {
		t.Fatalf("elca with duplicates = %v, baseline = %v", labels(got), labels(want))
	}
	// Single duplicated list too.
	got = ELCA(dup(xs))
	want = ELCABaseline(dup(xs))
	if !sameNodes(got, want) {
		t.Fatalf("single-list elca with duplicates = %v, baseline = %v", labels(got), labels(want))
	}
}
