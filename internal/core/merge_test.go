package core

import (
	"fmt"
	"maps"
	"math/rand"
	"slices"
	"testing"

	"extract/internal/dtd"
	"extract/xmltree"
)

// analysisLabels is randomAnalysisDoc's vocabulary: few labels, so they
// repeat at every depth and the root's label occurs below it too.
var analysisLabels = []string{"a", "b", "c", "d", "e"}

// randomAnalysisDoc draws a document whose analysis exercises every merge
// rule: labels repeating under one parent (entities) or not, elements
// wrapping one text value (attributes) or more, values that repeat and
// values that do not (keys won and lost, within a cut and across), text
// directly under the root, and a root whose label may be an entity's.
func randomAnalysisDoc(rng *rand.Rand) *xmltree.Document {
	root := xmltree.Elem(analysisLabels[rng.Intn(len(analysisLabels))])
	nodes := []*xmltree.Node{root}
	unique := 0
	for n := 2 + rng.Intn(50); len(nodes) < n; {
		parent := nodes[rng.Intn(len(nodes))]
		if rng.Intn(3) == 0 {
			parent = root // a wide top level, for the cuts to split
		}
		if rng.Intn(6) == 0 {
			xmltree.Append(parent, xmltree.Txt("t"))
			continue
		}
		child := xmltree.Elem(analysisLabels[rng.Intn(len(analysisLabels))])
		if child.Label == "a" {
			// An identifier, now and then a repeated one: a's key, if a
			// is an entity and no shard or pair of shards repeats it.
			unique++
			v := fmt.Sprint("k", unique)
			if rng.Intn(8) == 0 {
				v = "k0"
			}
			xmltree.Append(child, xmltree.Elem("k", xmltree.Txt(v)))
		}
		if rng.Intn(2) == 0 {
			v := fmt.Sprint("v", rng.Intn(4))
			if rng.Intn(2) == 0 {
				unique++
				v = fmt.Sprint("u", unique)
			}
			xmltree.Append(child, xmltree.Txt(v))
		}
		xmltree.Append(parent, child)
		nodes = append(nodes, child)
	}
	return xmltree.NewDocument(root)
}

// randomCuts cuts n root children into contiguous non-empty blocks (one
// empty block for none).
func randomCuts(rng *rand.Rand, n int) []int {
	cuts := []int{0}
	for i := 1; i < n; i++ {
		if rng.Intn(2) == 0 {
			cuts = append(cuts, i)
		}
	}
	return append(cuts, n)
}

// blockDoc is block [lo, hi) of doc's root children under a copy of the
// root, finalized as a document of its own: what shard.BuildFrom builds.
func blockDoc(doc *xmltree.Document, lo, hi int) *xmltree.Document {
	root := &xmltree.Node{Kind: xmltree.KindElement, Label: doc.Root.Label, FromAttr: doc.Root.FromAttr}
	for _, c := range doc.Root.Children[lo:hi] {
		xmltree.Append(root, xmltree.DeepCopy(c))
	}
	return xmltree.NewDocument(root)
}

var analysisDTDs = []string{
	"",
	`<!ELEMENT a (b*, c)> <!ELEMENT b (#PCDATA)> <!ELEMENT c ANY>`,
	`<!ELEMENT d (e, e?)> <!ELEMENT e (#PCDATA)> <!ELEMENT a (#PCDATA)>`,
}

// sameAnalysis asserts that got decides what want decides: every label's
// category, and every entity's key. A merge of several partials carries key
// decisions only, so candidate evidence is not compared.
func sameAnalysis(t *testing.T, label string, got, want *Analysis) {
	t.Helper()
	if g, w := got.Cls.Categories(), want.Cls.Categories(); !maps.Equal(g, w) {
		t.Fatalf("%s: categories %v, whole document %v", label, g, w)
	}
	if g, w := got.Keys.Entities(), want.Keys.Entities(); !slices.Equal(g, w) {
		t.Fatalf("%s: keyed entities %v, whole document %v", label, g, w)
	}
	for _, e := range want.Keys.Entities() {
		g, _ := got.Keys.KeyAttr(e)
		w, _ := want.Keys.KeyAttr(e)
		if g != w {
			t.Fatalf("%s: %s keyed by %q, whole document by %q", label, e, g, w)
		}
	}
}

// TestAnalyzeIsMergeOfPartials is the analysis's split property: over random
// documents × random cuts of the root's children × with and without a DTD,
// the merge of the blocks' partials decides what Analyze decides over the
// whole document. Then, as a delta would, one block is replaced by a grown
// copy while the others keep their complete partials: the merge must decide
// what Analyze decides over the grown document, whether the classification
// moved (and every block's keys are collected again) or not.
func TestAnalyzeIsMergeOfPartials(t *testing.T) {
	rng := rand.New(rand.NewSource(32))
	keyed, rootEntities := 0, 0
	for i := 0; i < 400; i++ {
		doc := randomAnalysisDoc(rng)
		var d *dtd.DTD
		if src := analysisDTDs[rng.Intn(len(analysisDTDs))]; src != "" {
			var err error
			if d, err = dtd.ParseString(src); err != nil {
				t.Fatal(err)
			}
		}
		cuts := randomCuts(rng, len(doc.Root.Children))
		shards := make([]*Corpus, len(cuts)-1)
		for b := range shards {
			shards[b] = &Corpus{Doc: blockDoc(doc, cuts[b], cuts[b+1])}
		}
		want := Analyze(doc, d)
		label := fmt.Sprintf("doc %d %s, cuts %v", i, xmltree.RenderInline(doc.Root), cuts)
		sameAnalysis(t, label, Merge(shards, d), want)
		if len(want.Keys.Entities()) > 0 {
			keyed++
		}
		if want.Cls.IsEntity(doc.Root) {
			rootEntities++
		}

		// The delta: the last block gains a copy of a random element.
		grownRoot := xmltree.DeepCopy(doc.Root)
		nodes := doc.Nodes()
		xmltree.Append(grownRoot, xmltree.DeepCopy(nodes[rng.Intn(len(nodes))]))
		grown := xmltree.NewDocument(grownRoot)
		last := len(shards) - 1
		next := make([]*Corpus, len(shards))
		for b, s := range shards[:last] {
			next[b] = &Corpus{Doc: s.Doc, Partial: s.Partial}
		}
		next[last] = &Corpus{Doc: blockDoc(grown, cuts[last], len(grownRoot.Children))}
		sameAnalysis(t, label+", grown", Merge(next, d), Analyze(grown, d))
	}
	if keyed < 20 || rootEntities < 20 {
		t.Fatalf("only %d documents mined a key and %d had an entity root: the draw does not exercise the merge", keyed, rootEntities)
	}
}
