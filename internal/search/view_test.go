package search

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"extract/internal/classify"
	"extract/internal/index"
	"extract/xmltree"
)

// checkView asserts the view contract of a subtree-mode result: the result
// IS the anchor's subtree in the source document, as a sub-document over its
// contiguous, capacity-clipped preorder run.
func checkView(t *testing.T, src *xmltree.Document, r *Result) {
	t.Helper()
	if !r.IsView() {
		t.Fatal("subtree-mode result is not a view")
	}
	if r.Root != r.Anchor || r.Doc.Root != r.Root {
		t.Fatalf("Doc.Root, Root, Anchor = %v, %v, %v; want one node", r.Doc.Root, r.Root, r.Anchor)
	}
	if r.Doc.Len() != r.Root.NodeCount() || r.Size() != int(r.Root.End-r.Root.Start) {
		t.Fatalf("Doc.Len %d, Size %d for a subtree of %d nodes", r.Doc.Len(), r.Size(), r.Root.NodeCount())
	}
	nodes := r.Doc.Nodes()
	if cap(nodes) != len(nodes) {
		t.Fatalf("Doc.Nodes has spare capacity %d over the source sequence", cap(nodes)-len(nodes))
	}
	for i, n := range nodes {
		if n != src.Nodes()[r.Root.Ord+i] {
			t.Fatalf("Doc.Nodes[%d] = %v, not the source document's node", i, n)
		}
	}
	if !r.Root.ContainsOrSelf(r.LCA) {
		t.Fatalf("LCA %v outside the result", r.LCA)
	}
}

func TestResultIsView(t *testing.T) {
	doc := parse(t, corpus)
	e := NewEngine(doc, nil, nil, Options{DistinctAnchors: true})
	for _, q := range []string{"Texas apparel retailer", "houston", "suit man", "retailers"} {
		results, err := e.Search(q)
		if err != nil || len(results) == 0 {
			t.Fatalf("%q: %v, %d results", q, err, len(results))
		}
		for _, r := range results {
			checkView(t, doc, r)
		}
	}

	// A structurally selected node is a view the same way, even below an
	// entity: its Parent leads out of the result.
	name := doc.Root.Descendant("retailer", "store", "city")
	r := FromNode(doc, name)
	checkView(t, doc, r)
	if r.Root.Parent == nil || len(r.MatchKeywords()) != 0 {
		t.Errorf("FromNode: parent %v, matches %v", r.Root.Parent, r.MatchKeywords())
	}

	// A trimmed projection is an owned tree: new nodes, finalized on
	// their own, pointing back at the source through Origin.
	x, err := NewEngine(doc, nil, nil, Options{Mode: ModeXSeek}).Search("houston suit")
	if err != nil || len(x) != 1 {
		t.Fatalf("xseek: %v, %d results", err, len(x))
	}
	if p := x[0]; p.IsView() || p.Root == p.Anchor || p.Root.Origin != p.Anchor ||
		p.Root.Parent != nil || p.Root.Ord != 0 || p.Doc.Len() != p.Root.NodeCount() {
		t.Errorf("xseek result is not an owned projection of its anchor: view=%v root=%v", p.IsView(), p.Root)
	}
}

// An append to a result's match slice must reallocate: the slice aliases the
// engine's posting list, and here stops one short of its end.
func TestMatchesDoNotExposeIndex(t *testing.T) {
	doc := parse(t, corpus)
	e := NewEngine(doc, nil, nil, Options{DistinctAnchors: true})
	results, err := e.Search("houston apparel")
	if err != nil || len(results) != 1 {
		t.Fatalf("%v, %d results", err, len(results))
	}
	list := e.Index().List("apparel").Nodes
	before := append([]*xmltree.Node(nil), list...)
	ms := results[0].Matches("apparel")
	if len(ms) != 1 || len(list) != 2 || ms[0] != list[0] {
		t.Fatalf("matches %v of postings %v; want the first of two", ms, list)
	}
	_ = append(ms, doc.Root)
	if !sameNodes(list, before) {
		t.Error("append to Result.Matches wrote into the posting list")
	}
}

// A keyword with no match inside the anchor has no key at all: the wire codec
// encodes the sorted key set, so an empty entry would change the bytes.
func TestMatchesOmitAbsentKeyword(t *testing.T) {
	doc := parse(t, corpus)
	e := NewEngine(doc, nil, nil, Options{})
	ev, err := e.Evaluate("houston jeans")
	if err != nil {
		t.Fatal(err)
	}
	// Results for a node the caller picked (a shard merge does): the first
	// store holds "houston" and no "jeans".
	store := doc.Root.Descendant("retailer", "store")
	rs := e.Results(ev, []*xmltree.Node{store})
	if len(rs) != 1 || rs[0].Anchor != store {
		t.Fatalf("results = %v", rs)
	}
	if rs[0].Matches("jeans") != nil || len(rs[0].MatchKeywords()) != 1 || len(rs[0].Matches("houston")) != 1 {
		t.Errorf("matches = %v, want houston only", rs[0].MatchKeywords())
	}
}

// phraseDoc is randomDoc with multi-token values, so phrase terms match.
func phraseDoc(r *rand.Rand) *xmltree.Document {
	labels := []string{"a", "b", "c", "d"}
	values := []string{"x", "y", "z", "x y", "y z", "z x y"}
	nodes := []*xmltree.Node{xmltree.Elem("root")}
	for n := 3 + r.Intn(40); len(nodes) < n; {
		parent := nodes[r.Intn(len(nodes))]
		child := xmltree.Elem(labels[r.Intn(len(labels))])
		if r.Intn(2) == 0 {
			xmltree.Append(child, xmltree.Txt(values[r.Intn(len(values))]))
		}
		xmltree.Append(parent, child)
		nodes = append(nodes, child)
	}
	return xmltree.NewDocument(nodes[0])
}

// Property: the binary-searched match ranges equal a linear filter of every
// posting against the anchor's subtree — on random documents, under both
// semantics, phrase terms included — and every result is a view.
func TestMatchRangesEqualLinearFilter(t *testing.T) {
	terms := []string{"x", "y", "z", "a", "b", `"x y"`, `"y z"`, `"z x y"`}
	check := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		doc := phraseDoc(r)
		opts := Options{DistinctAnchors: r.Intn(2) == 0}
		if r.Intn(2) == 0 {
			opts.Semantics = SemanticsELCA
		}
		e := NewEngine(doc, nil, nil, opts)
		q := make([]string, 1+r.Intn(3))
		for i := range q {
			q[i] = terms[r.Intn(len(terms))]
		}
		ev, results, err := e.EvaluateResults(strings.Join(q, " "), nil)
		if err != nil {
			return false
		}
		for _, res := range results {
			checkView(t, doc, res)
			for i, kw := range ev.Keywords {
				var want []*xmltree.Node
				for _, m := range ev.Lists[i].Nodes {
					if res.Anchor.ContainsOrSelf(m) {
						want = append(want, m)
					}
				}
				got := res.Matches(kw)
				ok := got != nil
				if ok != (len(want) > 0) || !sameNodes(got, want) || cap(got) != len(got) {
					t.Logf("seed %d, %q under %v: got %v, want %v", seed, kw, res.Anchor, got, want)
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 400}); err != nil {
		t.Error(err)
	}
}

// shopsDoc builds <db> with one <shop> per size: shop i holds a <name>
// matching "shop<i>", sizes[i] filler leaves, and dup leaves matching "dup".
func shopsDoc(dup int, sizes ...int) *xmltree.Document {
	db := xmltree.Elem("db")
	for i, size := range sizes {
		shop := xmltree.Elem("shop", xmltree.Attr("name", fmt.Sprintf("shop%d", i)))
		for j := 0; j < size; j++ {
			xmltree.Append(shop, xmltree.Elem("filler"))
		}
		for j := 0; j < dup; j++ {
			xmltree.Append(shop, xmltree.Attr("tag", "dup"))
		}
		xmltree.Append(db, shop)
	}
	return xmltree.NewDocument(db)
}

// shopEngine classifies shop as the only entity, so every LCA below a shop
// anchors at it.
func shopEngine(doc *xmltree.Document) *Engine {
	cls := classify.FromCategories(map[string]classify.Category{"shop": classify.Entity})
	return NewEngine(doc, index.Build(doc), cls, Options{DistinctAnchors: true})
}

// Building a result has no O(subtree) term, and an LCA whose anchor is
// already taken builds nothing.
func TestResultAllocations(t *testing.T) {
	doc := shopsDoc(0, 8, 10_000)
	small, big := doc.Root.Children[0], doc.Root.Children[1]
	if small.NodeCount() > 12 || big.NodeCount() < 10_000 {
		t.Fatalf("anchors of %d and %d nodes", small.NodeCount(), big.NodeCount())
	}
	e := shopEngine(doc)

	resultsAllocs := func(query string, take int, anchor *xmltree.Node) float64 {
		ev, err := e.Evaluate(query)
		if err != nil || len(ev.LCAs) < take {
			t.Fatalf("%q: %v, %d LCAs", query, err, len(ev.LCAs))
		}
		lcas := ev.LCAs[:take]
		if rs := e.Results(ev, lcas); len(rs) != 1 || rs[0].Anchor != anchor {
			t.Fatalf("%q: results %v, want one anchored at %v", query, rs, anchor)
		}
		return testing.AllocsPerRun(50, func() { e.Results(ev, lcas) })
	}
	one := resultsAllocs("shop0", 1, small)
	if got := resultsAllocs("shop1", 1, big); got != one {
		t.Errorf("one result under a %d-node anchor: %v allocs, under a %d-node anchor: %v",
			small.NodeCount(), one, big.NodeCount(), got)
	}
	if one > 8 {
		t.Errorf("one view result costs %v allocations", one)
	}

	// The SLCAs of "dup" are the 50 tag elements, all anchored at the shop.
	dupDoc := shopsDoc(50, 8)
	e = shopEngine(dupDoc)
	shop := dupDoc.Root.Children[0]
	if got := resultsAllocs("dup", 50, shop); got != one {
		t.Errorf("50 LCAs de-duplicated onto one anchor: %v allocs, one LCA: %v", got, one)
	}
	evalAllocs := func(query string) float64 {
		return testing.AllocsPerRun(50, func() {
			if _, rs, err := e.EvaluateResults(query, nil); err != nil || len(rs) != 1 {
				t.Fatalf("%q: %v, %d results", query, err, len(rs))
			}
		})
	}
	// The 50-LCA evaluation may grow its LCA slice a few times more than
	// the 1-LCA one; 50 built-then-dropped results would cost 200+.
	if a1, a50 := evalAllocs("shop0"), evalAllocs("dup"); a50 > a1+20 {
		t.Errorf("EvaluateResults: %v allocs for 50 LCAs on one anchor, %v for one LCA", a50, a1)
	}
}
