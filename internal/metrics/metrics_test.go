package metrics

import (
	"testing"

	"extract/internal/baseline"
	"extract/internal/classify"
	"extract/internal/features"
	"extract/internal/gen"
	"extract/internal/ilist"
	"extract/internal/index"
	"extract/internal/keys"
	"extract/internal/selector"
	"extract/xmltree"
)

type fx struct {
	result *xmltree.Document
	il     *ilist.IList
	cls    *classify.Classification
	stats  *features.Stats
	kws    []string
}

func figure1(t *testing.T) *fx {
	t.Helper()
	corpus := gen.Figure1Corpus()
	cls := classify.Classify(corpus)
	km := keys.Mine(corpus, cls)
	result := gen.Figure1Result()
	stats := features.Collect(result.Root, cls)
	kws := index.Tokenize(gen.Figure1Query)
	il := ilist.Build(result.Root, kws, cls, km, stats)
	return &fx{result: result, il: il, cls: cls, stats: stats, kws: kws}
}

// coverage and weighted are the two fractions of selector.CoverageOf: of the
// IList items witnessed by the tree, and rank-weighted (1/(1+rank)).
func coverage(root *xmltree.Node, il *ilist.IList, cls *classify.Classification) float64 {
	c, _ := selector.CoverageOf(root, il, cls)
	return c
}

func weighted(root *xmltree.Node, il *ilist.IList, cls *classify.Classification) float64 {
	_, w := selector.CoverageOf(root, il, cls)
	return w
}

func TestCoverageBounds(t *testing.T) {
	f := figure1(t)
	// The whole result witnesses everything.
	if got := coverage(f.result.Root, f.il, f.cls); got != 1 {
		t.Errorf("full result coverage = %f", got)
	}
	if got := weighted(f.result.Root, f.il, f.cls); got != 1 {
		t.Errorf("full weighted = %f", got)
	}
	// A bare root witnesses only the "retailer" keyword.
	bare := xmltree.Elem("retailer")
	got := coverage(bare, f.il, f.cls)
	want := 1.0 / float64(f.il.Len())
	if got != want {
		t.Errorf("bare coverage = %f, want %f", got, want)
	}
	if coverage(nil, f.il, f.cls) != 0 {
		t.Error("nil root coverage should be 0")
	}
}

func TestWeightedFavorsTopItems(t *testing.T) {
	f := figure1(t)
	// Covering the first item only beats covering the last item only in
	// weighted coverage.
	firstOnly := xmltree.Elem("x", xmltree.Attr("state", "Texas"))
	// "woman" is the last item; build a clothes with only fitting woman.
	lastOnly := xmltree.Elem("x", xmltree.Elem("clothes", xmltree.Attr("fitting", "woman")))
	// Embed under a connection root so entity ownership resolves.
	wFirst := weighted(xmltree.NewDocument(firstOnly).Root, f.il, f.cls)
	wLast := weighted(xmltree.NewDocument(lastOnly).Root, f.il, f.cls)
	if wFirst <= wLast {
		t.Errorf("weighted: first-only %f <= last-only %f", wFirst, wLast)
	}
}

func TestKeywordCoverage(t *testing.T) {
	f := figure1(t)
	if got := KeywordCoverage(f.result.Root, f.kws); got != 1 {
		t.Errorf("full = %f", got)
	}
	partial := xmltree.Elem("retailer", xmltree.Attr("state", "Texas"))
	if got := KeywordCoverage(partial, f.kws); got < 0.6 || got > 0.7 {
		t.Errorf("partial = %f, want 2/3", got)
	}
	if got := KeywordCoverage(nil, f.kws); got != 0 {
		t.Errorf("nil = %f", got)
	}
	if got := KeywordCoverage(partial, nil); got != 1 {
		t.Errorf("no keywords = %f", got)
	}
}

func TestSelfContained(t *testing.T) {
	f := figure1(t)
	snip := selector.Greedy(f.result, f.il, f.cls, f.stats, 13)
	if !SelfContained(snip.Root, f.il, f.cls) {
		t.Error("eXtract snippet should be self-contained")
	}
	// The BFS baseline at the same bound happens to include name too
	// (root attributes come first), but a tiny path-only snippet is not
	// self-contained: no key.
	p := baseline.PathOnly(f.result, []string{"houston"}, 2)
	if SelfContained(p, f.il, f.cls) {
		t.Errorf("path snippet should lack the key: %s", xmltree.RenderInline(p))
	}
	if SelfContained(nil, f.il, f.cls) {
		t.Error("nil snippet cannot be self-contained")
	}
}

func TestDistinguishability(t *testing.T) {
	a := xmltree.Elem("store", xmltree.Attr("name", "Levis"))
	b := xmltree.Elem("store", xmltree.Attr("name", "ESprit"))
	c := xmltree.Elem("store", xmltree.Attr("name", "Levis"))
	if got := Distinguishability([]*xmltree.Node{a, b}); got != 1 {
		t.Errorf("distinct pair = %f", got)
	}
	if got := Distinguishability([]*xmltree.Node{a, c}); got != 0.5 {
		t.Errorf("identical pair = %f", got)
	}
	if got := Distinguishability(nil); got != 1 {
		t.Errorf("empty = %f", got)
	}
	if got := Distinguishability([]*xmltree.Node{a, nil}); got != 1 {
		t.Errorf("nil entry = %f", got)
	}
	if got := DistinguishabilityTexts([]string{"x", "x", "y"}); got < 0.66 || got > 0.67 {
		t.Errorf("texts = %f", got)
	}
}

// TestEXtractBeatsBaselinesOnWeightedCoverage is the E6 shape in miniature:
// at a moderate bound, eXtract's weighted coverage dominates BFS and
// path-only baselines on the running example.
func TestEXtractBeatsBaselinesOnWeightedCoverage(t *testing.T) {
	f := figure1(t)
	bound := 10
	ex := selector.Greedy(f.result, f.il, f.cls, f.stats, bound)
	bfs := baseline.BFSPrefix(f.result.Root, bound)
	path := baseline.PathOnly(f.result, f.kws, bound)

	we := weighted(ex.Root, f.il, f.cls)
	wb := weighted(bfs, f.il, f.cls)
	wp := weighted(path, f.il, f.cls)
	if we <= wb {
		t.Errorf("eXtract %.3f <= BFS %.3f", we, wb)
	}
	if we <= wp {
		t.Errorf("eXtract %.3f <= PathOnly %.3f", we, wp)
	}
}
