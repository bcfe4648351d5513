package shard

import (
	"math/rand"
	"strings"
	"testing"

	"extract/internal/core"
	"extract/internal/gen"
	"extract/internal/search"
	"extract/xmltree"
)

// partition materializes every block of doc's n-way split, the way BuildFrom
// does for the blocks it does not adopt.
func partition(doc *xmltree.Document, n int) []*xmltree.Document {
	bl := BlocksOf(doc)
	bl.Cuts = Cuts(Weights(bl.Entities), n)
	docs := make([]*xmltree.Document, len(bl.Cuts)-1)
	for b := range docs {
		docs[b] = bl.block(b)
	}
	return docs
}

func TestPartitionPreservesNodesAndOrder(t *testing.T) {
	for _, n := range []int{1, 2, 3, 5, 100} {
		doc := gen.Figure5Corpus()
		wantNodes := doc.Len()
		wantChildren := len(doc.Root.Children)
		wantInline := xmltree.RenderInline(doc.Root)

		parts := partition(gen.Figure5Corpus(), n)
		if len(parts) == 0 {
			t.Fatalf("n=%d: no shards", n)
		}
		if len(parts) > n {
			t.Fatalf("n=%d: got %d shards", n, len(parts))
		}
		gotNodes, gotChildren := 0, 0
		for _, p := range parts {
			gotNodes += p.Len() - 1 // synthetic root per shard
			gotChildren += len(p.Root.Children)
			if p.Root.Label != "stores" {
				t.Fatalf("shard root label = %q", p.Root.Label)
			}
			if len(p.Root.Children) == 0 {
				t.Fatalf("n=%d: empty shard", n)
			}
		}
		if gotNodes+1 != wantNodes {
			t.Fatalf("n=%d: %d nodes, want %d", n, gotNodes+1, wantNodes)
		}
		if gotChildren != wantChildren {
			t.Fatalf("n=%d: %d children, want %d", n, gotChildren, wantChildren)
		}
		// Contiguity: reassembling shard children in shard order yields
		// the original document.
		root := &xmltree.Node{Kind: xmltree.KindElement, Label: "stores"}
		for _, p := range parts {
			for _, c := range p.Root.Children {
				xmltree.Append(root, c)
			}
		}
		if got := xmltree.RenderInline(xmltree.NewDocument(root).Root); got != wantInline {
			t.Fatalf("n=%d: reassembled document differs", n)
		}
	}
}

func TestPartitionSingleChildAndEmpty(t *testing.T) {
	doc, err := xmltree.ParseString(`<only><x>v</x></only>`)
	if err != nil {
		t.Fatal(err)
	}
	parts := partition(doc, 4)
	if len(parts) != 1 {
		t.Fatalf("single-child doc: %d shards", len(parts))
	}
	empty := xmltree.NewDocument(nil)
	if parts = partition(empty, 3); len(parts) != 1 || parts[0].Root != nil {
		t.Fatalf("empty doc: %v", parts)
	}
}

func TestBuildSharesGlobalAnalysis(t *testing.T) {
	sc := Build(gen.Figure1Corpus(), 3)
	if sc.NumShards() < 2 {
		t.Fatalf("shards = %d", sc.NumShards())
	}
	for _, s := range sc.Shards() {
		if s.Cls != sc.Classification() || s.Keys != sc.Keys() {
			t.Fatal("shard analysis not shared")
		}
	}
	// Classification equals the unsharded one (it was computed globally).
	unsharded := core.BuildCorpus(gen.Figure1Corpus())
	if got, want := sc.Classification().Entities(), unsharded.Cls.Entities(); !equalStrings(got, want) {
		t.Fatalf("entities = %v, want %v", got, want)
	}
	if a, ok := sc.Keys().KeyAttr("retailer"); !ok || a != "name" {
		t.Fatalf("retailer key = %q %v", a, ok)
	}
}

func TestStatsAggregation(t *testing.T) {
	unsharded := core.BuildCorpus(gen.Figure5Corpus())
	st := unsharded.Doc.ComputeStats()
	sc := Build(gen.Figure5Corpus(), 4)
	if got := sc.TotalNodes(); got != st.Nodes {
		t.Errorf("TotalNodes = %d, want %d", got, st.Nodes)
	}
	if got := sc.TotalElements(); got != st.Elements {
		t.Errorf("TotalElements = %d, want %d", got, st.Elements)
	}
	if got, want := sc.DistinctKeywords(), unsharded.Index.DistinctKeywords(); got != want {
		t.Errorf("DistinctKeywords = %d, want %d", got, want)
	}
	for _, kw := range []string{"store", "austin", "shirt"} {
		if got, want := sc.Count(kw), unsharded.Index.Count(kw); got != want {
			t.Errorf("Count(%q) = %d, want %d", kw, got, want)
		}
	}
}

// TestAdoptedShardStatsNotRecomputed: a shard's statistics are memoized on
// its document, so a generation adopting the shard reads the figures the
// previous generation's walk left there. The probe: after the first
// generation has read its statistics, an adopted document is changed in a
// way a walk would count; the next generation must still report the first
// walk's figures, and a shard it built must be walked.
func TestAdoptedShardStatsNotRecomputed(t *testing.T) {
	first := Build(gen.Figure5Corpus(), 3)
	nodes, elements := first.TotalNodes(), first.TotalElements()
	probed := first.Shards()[0].Doc
	for _, n := range probed.Nodes() {
		if n.IsText() {
			n.Kind = xmltree.KindElement // a walk would count one element more
			break
		}
	}
	if probed.ComputeStats().Elements != probed.Stats().Elements+1 {
		t.Fatal("the probe does not change what a walk counts")
	}

	bl := BlocksOf(gen.Figure5Corpus())
	bl.Cuts = Cuts(Weights(bl.Entities), 3)
	next := BuildFrom(&bl, []*core.Corpus{first.Shards()[0], first.Shards()[1]})
	if next.Shards()[0].Doc != probed || next.Shards()[2].Doc == first.Shards()[2].Doc {
		t.Fatal("the next generation did not adopt shards 0 and 1 and build shard 2")
	}
	if got := next.TotalElements(); got != elements {
		t.Errorf("TotalElements = %d after adopting, want the memoized %d", got, elements)
	}
	if got := next.TotalNodes(); got != nodes {
		t.Errorf("TotalNodes = %d after adopting, want %d", got, nodes)
	}
}

func TestCompletePrefixMerged(t *testing.T) {
	unsharded := core.BuildCorpus(gen.Figure5Corpus())
	sc := Build(gen.Figure5Corpus(), 3)
	got := sc.CompletePrefix("s", 5)
	want := unsharded.Index.CompletePrefix("s", 5)
	if !equalStrings(got, want) {
		t.Errorf("CompletePrefix = %v, want %v", got, want)
	}
}

// TestRootSpanningSLCA: keywords that co-occur only at the root must still
// produce the root result, even though no shard sees both.
func TestRootSpanningSLCA(t *testing.T) {
	mk := func() *xmltree.Document {
		doc, err := xmltree.ParseString(`<r><a>alpha</a><b>beta</b><c>gamma</c></r>`)
		if err != nil {
			t.Fatal(err)
		}
		return doc
	}
	unsharded := core.BuildCorpus(mk())
	sc := Build(mk(), 3)
	if sc.NumShards() != 3 {
		t.Fatalf("shards = %d", sc.NumShards())
	}
	opts := search.Options{DistinctAnchors: true}
	want, err := search.NewEngine(unsharded.Doc, unsharded.Index, unsharded.Cls, opts).Search("alpha beta")
	if err != nil {
		t.Fatal(err)
	}
	got, err := sc.Search("alpha beta", opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(want) != 1 || len(got) != 1 {
		t.Fatalf("results: want %d, got %d", len(want), len(got))
	}
	if w, g := xmltree.XMLString(want[0].Root), xmltree.XMLString(got[0].Root); w != g {
		t.Fatalf("root result differs:\nwant %s\ngot  %s", w, g)
	}
}

// TestRootELCAWitnessesSplitAcrossShards: the root is an ELCA through
// witnesses in different shards, which no single shard can see.
func TestRootELCAWitnessesSplitAcrossShards(t *testing.T) {
	// d1 contains both keywords (an ELCA); the free witnesses "alpha" in
	// d2 and "beta" in d3 make the root an ELCA as well.
	mk := func() *xmltree.Document {
		doc, err := xmltree.ParseString(
			`<r><d1><x>alpha</x><y>beta</y></d1><d2>alpha</d2><d3>beta</d3></r>`)
		if err != nil {
			t.Fatal(err)
		}
		return doc
	}
	unsharded := core.BuildCorpus(mk())
	sc := Build(mk(), 3)
	opts := search.Options{Semantics: search.SemanticsELCA, DistinctAnchors: true}
	checkSameResults(t, unsharded, sc, "alpha beta", opts)
}

func checkSameResults(t *testing.T, unsharded *core.Corpus, sc *Corpus, query string, opts search.Options) {
	t.Helper()
	want, werr := search.NewEngine(unsharded.Doc, unsharded.Index, unsharded.Cls, opts).Search(query)
	got, gerr := sc.Search(query, opts)
	if (werr == nil) != (gerr == nil) {
		t.Fatalf("%q: errors differ: %v vs %v", query, werr, gerr)
	}
	if werr != nil {
		return
	}
	if len(want) != len(got) {
		t.Fatalf("%q: %d results, want %d", query, len(got), len(want))
	}
	for i := range want {
		w := xmltree.XMLString(want[i].Root)
		g := xmltree.XMLString(got[i].Root)
		if w != g {
			t.Fatalf("%q result %d differs:\nwant %s\ngot  %s", query, i, w, g)
		}
		if want[i].Anchor.Label != got[i].Anchor.Label {
			t.Fatalf("%q result %d anchor %q, want %q", query, i, got[i].Anchor.Label, want[i].Anchor.Label)
		}
	}
}

// TestRootEntityAnchor: when the root label classifies as an entity, results
// anchor at the root and must materialize the whole document, not a shard.
func TestRootEntityAnchor(t *testing.T) {
	// "list" repeats inside d, so the root label "list" is a *-node and
	// every result anchors at the nearest "list" ancestor — the root.
	mk := func() *xmltree.Document {
		doc, err := xmltree.ParseString(
			`<list><d><list><i>zeta</i></list><list><i>eta</i></list></d><e>zeta</e></list>`)
		if err != nil {
			t.Fatal(err)
		}
		return doc
	}
	unsharded := core.BuildCorpus(mk())
	sc := Build(mk(), 2)
	checkSameResults(t, unsharded, sc, "zeta", search.Options{DistinctAnchors: true})
}

func randomShardableDoc(r *rand.Rand) *xmltree.Document {
	labels := []string{"a", "b", "c", "d"}
	values := []string{"x", "y", "z", "alpha"}
	root := xmltree.Elem("root")
	nodes := []*xmltree.Node{root}
	n := 5 + r.Intn(40)
	for len(nodes) < n {
		parent := nodes[r.Intn(len(nodes))]
		child := xmltree.Elem(labels[r.Intn(len(labels))])
		if r.Intn(3) == 0 {
			xmltree.Append(child, xmltree.Txt(values[r.Intn(len(values))]))
		}
		xmltree.Append(parent, child)
		nodes = append(nodes, child)
	}
	return xmltree.NewDocument(root)
}

func equalStrings(a, b []string) bool {
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

// TestCompletePrefixGlobalTopK is the regression test for the local-top-k
// ranking bug: a keyword spread thinly across shards ("wc" below, never in
// any shard's local top-2) can still carry the highest global count, and
// merging per-shard top-k lists instead of full prefix tails lost it.
func TestCompletePrefixGlobalTopK(t *testing.T) {
	var b strings.Builder
	b.WriteString("<r>")
	emit := func(kws ...string) {
		b.WriteString("<e>")
		for _, kw := range kws {
			b.WriteString("<x>" + kw + "</x>")
		}
		b.WriteString("</e>")
	}
	// First half: wa x10, wb x9, wc x8. Second half: wd x10, we x9, wc x8.
	// Globally wc (16) ranks first; locally it is third on both sides.
	for i := 0; i < 10; i++ {
		kws := []string{"wa"}
		if i < 9 {
			kws = append(kws, "wb")
		}
		if i < 8 {
			kws = append(kws, "wc")
		}
		emit(kws...)
	}
	for i := 0; i < 10; i++ {
		kws := []string{"wd"}
		if i < 9 {
			kws = append(kws, "we")
		}
		if i < 8 {
			kws = append(kws, "wc")
		}
		emit(kws...)
	}
	b.WriteString("</r>")
	parse := func() *xmltree.Document {
		doc, err := xmltree.ParseString(b.String())
		if err != nil {
			t.Fatal(err)
		}
		return doc
	}

	unsharded := core.BuildCorpus(parse())
	for _, n := range []int{2, 3, 4} {
		sc := Build(parse(), n)
		for _, k := range []int{1, 2, 3, 5} {
			got := sc.CompletePrefix("w", k)
			want := unsharded.Index.CompletePrefix("w", k)
			if !equalStrings(got, want) {
				t.Errorf("n=%d k=%d: CompletePrefix = %v, want %v", n, k, got, want)
			}
		}
		if got := sc.CompletePrefix("w", 2); len(got) == 0 || got[0] != "wc" {
			t.Errorf("n=%d: top completion = %v, want wc first (global count 16)", n, got)
		}
	}
}

// TestCompletePrefixEquivalence sweeps prefixes over the generated corpora:
// sharded suggestions must be identical to unsharded at every shard count.
func TestCompletePrefixEquivalence(t *testing.T) {
	for _, tc := range generatedCorpora() {
		unsharded := core.BuildCorpus(tc.mk())
		prefixes := map[string]bool{}
		for _, kw := range unsharded.Index.Vocabulary() {
			prefixes[kw[:1]] = true
			if len(kw) > 1 {
				prefixes[kw[:2]] = true
			}
		}
		for _, n := range []int{2, 3, 5} {
			sc := Build(tc.mk(), n)
			for p := range prefixes {
				for _, k := range []int{1, 3, 10} {
					got := sc.CompletePrefix(p, k)
					want := unsharded.Index.CompletePrefix(p, k)
					if !equalStrings(got, want) {
						t.Fatalf("%s n=%d prefix=%q k=%d: %v, want %v", tc.name, n, p, k, got, want)
					}
				}
			}
		}
	}
}
