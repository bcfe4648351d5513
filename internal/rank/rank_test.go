package rank

import (
	"math"
	"testing"

	"extract/internal/index"
	"extract/internal/search"
	"extract/xmltree"
)

const corpus = `
<library>
  <book>
    <title>gopher handbook</title>
    <topic>gopher</topic>
  </book>
  <book>
    <title>animal atlas</title>
    <chapters><chapter><section><note>gopher</note></section></chapter></chapters>
  </book>
  <book>
    <title>common words</title>
    <topic>common</topic>
  </book>
  <book>
    <title>more common words</title>
    <topic>common</topic>
  </book>
</library>`

func setup(t *testing.T) (*search.Engine, *Scorer) {
	t.Helper()
	doc, err := xmltree.ParseString(corpus)
	if err != nil {
		t.Fatal(err)
	}
	ix := index.Build(doc)
	eng := search.NewEngine(doc, ix, nil, search.Options{DistinctAnchors: true})
	return eng, NewScorerFunc(ix.Count, doc.ComputeStats().Elements)
}

func TestDepthDecay(t *testing.T) {
	eng, sc := setup(t)
	results, err := eng.Search(search.Parse("gopher"))
	if err != nil || len(results) != 2 {
		t.Fatalf("results = %d (%v)", len(results), err)
	}
	// Both books match "gopher"; the shallow match (direct topic) must
	// outscore the one buried under chapters/chapter/section/note.
	scores := sc.Sort(results, []string{"gopher"})
	if len(scores) != 2 || scores[0] <= scores[1] {
		t.Fatalf("scores = %v", scores)
	}
	title := results[0].Root.ChildElement("title").TextValue()
	if title != "gopher handbook" {
		t.Errorf("top result = %q", title)
	}
}

func TestIDFPrefersRareKeyword(t *testing.T) {
	_, sc := setup(t)
	if sc.IDF("gopher") <= sc.IDF("common") {
		t.Errorf("idf(gopher)=%f <= idf(common)=%f", sc.IDF("gopher"), sc.IDF("common"))
	}
	if sc.IDF("absent") <= sc.IDF("common") {
		t.Error("absent keyword should have max idf")
	}
}

func TestScoreMissingKeywordContributesZero(t *testing.T) {
	eng, sc := setup(t)
	results, _ := eng.Search(search.Parse("gopher"))
	with := sc.Score(results[0], []string{"gopher"})
	withMissing := sc.Score(results[0], []string{"gopher", "absent"})
	if with != withMissing {
		t.Errorf("missing keyword changed score: %f vs %f", with, withMissing)
	}
}

func TestSortStableOnTies(t *testing.T) {
	eng, sc := setup(t)
	results, _ := eng.Search(search.Parse("common"))
	if len(results) != 2 {
		t.Fatalf("results = %d", len(results))
	}
	first := results[0].Anchor.Ord
	sc.Sort(results, []string{"common"})
	// Equal scores: document order preserved.
	if results[0].Anchor.Ord != first {
		t.Error("tie order not stable")
	}
}

// TestOrderLeavesResultsInPlace: Order ranks without moving the caller's
// results, and its order and scores are what Sort puts in place.
func TestOrderLeavesResultsInPlace(t *testing.T) {
	eng, sc := setup(t)
	results, err := eng.Search(search.Parse("gopher"))
	if err != nil || len(results) != 2 {
		t.Fatalf("results = %d (%v)", len(results), err)
	}
	before := append([]*search.Result(nil), results...)
	order, scores := sc.Order(results, []string{"gopher"})
	for i := range results {
		if results[i] != before[i] {
			t.Fatal("Order moved the caller's results")
		}
	}
	sorted := sc.Sort(results, []string{"gopher"})
	for i, o := range order {
		if results[i] != before[o] || scores[i] != sorted[i] {
			t.Fatalf("rank %d: Order says result %d scored %v, Sort placed another scored %v", i, o, scores[i], sorted[i])
		}
	}
	// The shallow match (the second book's buried note loses) ranks first.
	if order[0] != 0 || scores[0] <= scores[1] {
		t.Fatalf("order %v, scores %v", order, scores)
	}
}

// TestOrderReadsEachFrequencyOnce: ranking a result list reads each
// keyword's document frequency once — on a sharded corpus a read is a lookup
// on every shard — and scores exactly as scoring each result on its own.
func TestOrderReadsEachFrequencyOnce(t *testing.T) {
	doc, err := xmltree.ParseString(corpus)
	if err != nil {
		t.Fatal(err)
	}
	ix := index.Build(doc)
	eng := search.NewEngine(doc, ix, nil, search.Options{})
	one, err := eng.Search(search.Parse("gopher"))
	if err != nil || len(one) == 0 {
		t.Fatalf("%d results, %v", len(one), err)
	}
	var results []*search.Result
	for len(results) < 25 {
		results = append(results, one...)
	}
	results = results[:25]
	keywords := []string{"gopher", "common", "atlas"}
	reads := 0
	sc := NewScorerFunc(func(kw string) int { reads++; return ix.Count(kw) }, doc.ComputeStats().Elements)
	order, scores := sc.Order(results, keywords)
	if reads != len(keywords) {
		t.Errorf("ranking %d results read %d document frequencies, want %d", len(results), reads, len(keywords))
	}
	plain := NewScorerFunc(ix.Count, doc.ComputeStats().Elements)
	for i, o := range order {
		if want := plain.Score(results[o], keywords); math.Float64bits(scores[i]) != math.Float64bits(want) {
			t.Errorf("score %d = %v, want %v", i, scores[i], want)
		}
	}
}
