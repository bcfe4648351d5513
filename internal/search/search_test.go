package search

import (
	"math/rand"
	"testing"
	"testing/quick"

	"extract/internal/index"
	"extract/xmltree"
)

const corpus = `
<retailers>
  <retailer>
    <name>Brook Brothers</name>
    <product>apparel</product>
    <store>
      <state>Texas</state><city>Houston</city>
      <merchandises>
        <clothes><category>suit</category><fitting>man</fitting></clothes>
        <clothes><category>outwear</category><fitting>woman</fitting></clothes>
      </merchandises>
    </store>
    <store>
      <state>Texas</state><city>Austin</city>
      <merchandises><clothes><category>skirt</category></clothes></merchandises>
    </store>
  </retailer>
  <retailer>
    <name>Levis</name>
    <product>apparel</product>
    <store>
      <state>California</state><city>Fresno</city>
      <merchandises><clothes><category>jeans</category></clothes></merchandises>
    </store>
  </retailer>
</retailers>`

func parse(t *testing.T, src string) *xmltree.Document {
	t.Helper()
	doc, err := xmltree.ParseString(src)
	if err != nil {
		t.Fatal(err)
	}
	return doc
}

func labels(ns []*xmltree.Node) []string {
	out := make([]string, len(ns))
	for i, n := range ns {
		out[i] = n.Label
	}
	return out
}

func TestSLCASimple(t *testing.T) {
	doc := parse(t, corpus)
	ix := index.Build(doc)

	// "texas apparel retailer": both retailers match apparel+retailer,
	// only the first matches texas; SLCA = first retailer.
	got := SLCA(ix.Nodes("texas"), ix.Nodes("apparel"), ix.Nodes("retailer"))
	if len(got) != 1 || got[0].Label != "retailer" {
		t.Fatalf("slca = %v", labels(got))
	}
	if got[0].ChildElement("name").TextValue() != "Brook Brothers" {
		t.Errorf("wrong retailer: %s", got[0].ChildElement("name").TextValue())
	}

	// "suit man": both inside the first clothes.
	got = SLCA(ix.Nodes("suit"), ix.Nodes("man"))
	if len(got) != 1 || got[0].Label != "clothes" {
		t.Fatalf("slca = %v", labels(got))
	}

	// "houston austin": two stores of the same retailer.
	got = SLCA(ix.Nodes("houston"), ix.Nodes("austin"))
	if len(got) != 1 || got[0].Label != "retailer" {
		t.Fatalf("slca = %v", labels(got))
	}

	// Single keyword: the match nodes themselves.
	got = SLCA(ix.Nodes("store"))
	if len(got) != 3 {
		t.Fatalf("single keyword slca = %v", labels(got))
	}

	// Empty list: no results.
	if got = SLCA(ix.Nodes("nothing"), ix.Nodes("store")); got != nil {
		t.Fatalf("empty list slca = %v", labels(got))
	}
}

func TestSLCARemovesAncestors(t *testing.T) {
	doc := parse(t, `<r><a><x/><y/></a><b><x/><c><y/></c></b><x/><y/></r>`)
	ix := index.Build(doc)
	got := SLCA(ix.Nodes("x"), ix.Nodes("y"))
	// Smallest covers: <a> (x,y inside), <b> (x, c/y inside), and <r>
	// would be an LCA of the trailing x,y but it is an ancestor of a and
	// b, so it is excluded by SLCA semantics.
	want := SLCABrute(doc, ix.Nodes("x"), ix.Nodes("y"))
	if !sameNodes(got, want) {
		t.Errorf("slca = %v, brute = %v", labels(got), labels(want))
	}
	if len(got) != 2 || got[0].Label != "a" || got[1].Label != "b" {
		t.Errorf("slca = %v, want [a b]", labels(got))
	}
}

func TestELCA(t *testing.T) {
	doc := parse(t, `<r><a><x/><y/></a><x/><y/></r>`)
	ix := index.Build(doc)
	// ELCA: <a> has x,y; <r> has exclusive x,y (the trailing ones).
	got := ELCA(ix.Nodes("x"), ix.Nodes("y"))
	if len(got) != 2 || got[0].Label != "r" || got[1].Label != "a" {
		t.Errorf("elca = %v, want [r a] in document order", labels(got))
	}
	// SLCA on the same data finds only <a>.
	sl := SLCA(ix.Nodes("x"), ix.Nodes("y"))
	if len(sl) != 1 || sl[0].Label != "a" {
		t.Errorf("slca = %v, want [a]", labels(sl))
	}
}

func TestELCASubsumesSLCA(t *testing.T) {
	doc := parse(t, corpus)
	ix := index.Build(doc)
	queries := [][]string{
		{"texas", "apparel"},
		{"suit", "man"},
		{"apparel", "retailer"},
		{"clothes", "category"},
	}
	for _, q := range queries {
		lists := make([][]*xmltree.Node, len(q))
		for i, kw := range q {
			lists[i] = ix.Nodes(kw)
		}
		sl := SLCA(lists...)
		el := ELCA(lists...)
		inEl := make(map[*xmltree.Node]bool)
		for _, n := range el {
			inEl[n] = true
		}
		for _, n := range sl {
			if !inEl[n] {
				t.Errorf("query %v: slca %v missing from elca %v", q, n, labels(el))
			}
		}
	}
}

func sameNodes(a, b []*xmltree.Node) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// Property: the indexed SLCA agrees with the brute-force definition on
// random trees and random keyword lists.
func TestSLCAMatchesBruteForce(t *testing.T) {
	check := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		doc := randomDoc(r, false)
		ix := index.Build(doc)
		voc := ix.Vocabulary()
		if len(voc) == 0 {
			return true
		}
		k := 1 + r.Intn(3)
		lists := make([][]*xmltree.Node, k)
		for i := 0; i < k; i++ {
			lists[i] = ix.Nodes(voc[r.Intn(len(voc))])
		}
		fast := SLCA(lists...)
		brute := SLCABrute(doc, lists...)
		return sameNodes(fast, brute)
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 250}); err != nil {
		t.Error(err)
	}
}

// randomDoc builds a small random document with a tiny vocabulary so that
// keyword lists are dense and SLCA cases are interesting. Bushy documents
// (up to 32 elements, any earlier element the parent) stay shallow; skinny
// ones (up to 400 elements, the parent one of the last three) run about 200
// deep, which is where the LCA fold's work is: its cost is the Parent climb.
// A few elements get a text run after their element children — mixed
// content, where a node's value follows a whole subtree in document order.
func randomDoc(r *rand.Rand, skinny bool) *xmltree.Document {
	labels := []string{"a", "b", "c", "d"}
	values := []string{"x", "y", "z"}
	nodes := []*xmltree.Node{xmltree.Elem("root")}
	n, window := 3+r.Intn(30), 0
	if skinny {
		n, window = 3+r.Intn(398), 3
	}
	for len(nodes) < n {
		lo := 0
		if window > 0 && len(nodes) > window {
			lo = len(nodes) - window
		}
		parent := nodes[lo+r.Intn(len(nodes)-lo)]
		child := xmltree.Elem(labels[r.Intn(len(labels))])
		if r.Intn(3) == 0 {
			xmltree.Append(child, xmltree.Txt(values[r.Intn(len(values))]))
		}
		xmltree.Append(parent, child)
		nodes = append(nodes, child)
	}
	for i := r.Intn(4); i > 0; i-- {
		p := nodes[r.Intn(len(nodes))]
		if k := len(p.Children); k > 0 && p.Children[k-1].IsElement() {
			xmltree.Append(p, xmltree.Txt(values[r.Intn(len(values))]))
		}
	}
	return xmltree.NewDocument(nodes[0])
}

func TestEngineSearch(t *testing.T) {
	doc := parse(t, corpus)
	e := NewEngine(doc, nil, nil, Options{DistinctAnchors: true})

	results, err := e.Search(Parse("Texas apparel retailer"))
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 1 {
		t.Fatalf("results = %d, want 1", len(results))
	}
	r := results[0]
	if r.Anchor.Label != "retailer" {
		t.Errorf("anchor = %s", r.Anchor.Label)
	}
	// ModeSubtree gives the whole retailer subtree.
	if r.Root.ChildElement("name").TextValue() != "Brook Brothers" {
		t.Errorf("result root = %v", xmltree.RenderInline(r.Root))
	}
	if got := len(r.Root.ChildElements("store")); got != 2 {
		t.Errorf("stores in result = %d", got)
	}
	// Matches restricted to the result.
	if len(r.Matches("texas")) != 2 {
		t.Errorf("texas matches = %d", len(r.Matches("texas")))
	}
	// The result is a view of the retailer in the source document.
	checkView(t, doc, r)
}

func TestEngineEntityAnchor(t *testing.T) {
	doc := parse(t, corpus)
	e := NewEngine(doc, nil, nil, Options{})
	// SLCA of "suit man" is the clothes node; clothes is an entity, so
	// the anchor is the clothes entity itself.
	results, err := e.Search(Parse("suit man"))
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 1 || results[0].Anchor.Label != "clothes" {
		t.Fatalf("results = %v", results)
	}
	// SLCA of "galleria" style attribute-level matches anchor at the
	// owning entity: "houston" matches the city attribute; its entity
	// owner is the store.
	results, err = e.Search(Parse("houston"))
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 1 || results[0].Anchor.Label != "store" {
		t.Fatalf("anchor = %v", results[0].Anchor)
	}
}

func TestEngineNoResults(t *testing.T) {
	doc := parse(t, corpus)
	e := NewEngine(doc, nil, nil, Options{})
	results, err := e.Search(Parse("texas zzzznothing"))
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 0 {
		t.Errorf("results = %d, want 0", len(results))
	}
	if _, err := e.Search(Parse("  ,;  ")); err != ErrEmptyQuery {
		t.Errorf("err = %v, want ErrEmptyQuery", err)
	}
}

func TestEngineMaxResults(t *testing.T) {
	doc := parse(t, corpus)
	e := NewEngine(doc, nil, nil, Options{MaxResults: 1})
	results, err := e.Search(Parse("store"))
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 1 {
		t.Errorf("results = %d, want 1", len(results))
	}
}

func TestEngineXSeekMode(t *testing.T) {
	doc := parse(t, corpus)
	e := NewEngine(doc, nil, nil, Options{Mode: ModeXSeek})
	results, err := e.Search(Parse("houston suit"))
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 1 {
		t.Fatalf("results = %d", len(results))
	}
	r := results[0]
	if r.Anchor.Label != "store" {
		t.Fatalf("anchor = %s", r.Anchor.Label)
	}
	// The trimmed result keeps the match paths and entity attributes but
	// drops the sibling clothes (outwear/woman) that match nothing.
	tree := xmltree.RenderInline(r.Root)
	for _, want := range []string{"houston", "suit", "state"} {
		if !containsFold(tree, want) {
			t.Errorf("trimmed result missing %q: %s", want, tree)
		}
	}
	if containsFold(tree, "outwear") {
		t.Errorf("trimmed result kept unmatched sibling: %s", tree)
	}
	full := NewEngine(doc, nil, nil, Options{Mode: ModeSubtree})
	fres, _ := full.Search(Parse("houston suit"))
	if fres[0].Size() <= r.Size() {
		t.Errorf("xseek result (%d edges) not smaller than subtree (%d)", r.Size(), fres[0].Size())
	}
}

func containsFold(s, sub string) bool {
	ls, lsub := []byte(s), []byte(sub)
	for i := range ls {
		if 'A' <= ls[i] && ls[i] <= 'Z' {
			ls[i] += 'a' - 'A'
		}
	}
	for i := range lsub {
		if 'A' <= lsub[i] && lsub[i] <= 'Z' {
			lsub[i] += 'a' - 'A'
		}
	}
	return indexBytes(ls, lsub) >= 0
}

func indexBytes(s, sub []byte) int {
	for i := 0; i+len(sub) <= len(s); i++ {
		match := true
		for j := range sub {
			if s[i+j] != sub[j] {
				match = false
				break
			}
		}
		if match {
			return i
		}
	}
	return -1
}
