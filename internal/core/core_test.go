package core

import (
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"extract/internal/dtd"
	"extract/internal/gen"
	"extract/internal/ilist"
	"extract/internal/search"
	"extract/internal/selector"
	"extract/xmltree"
)

func TestBuildCorpus(t *testing.T) {
	c := BuildCorpus(gen.Figure1Corpus())
	if c.Index == nil || c.Cls == nil || c.Keys == nil {
		t.Fatal("corpus artifacts missing")
	}
	if got := c.Cls.Entities(); len(got) != 3 {
		t.Errorf("entities = %v", got)
	}
	if attr, ok := c.Keys.KeyAttr("retailer"); !ok || attr != "name" {
		t.Errorf("retailer key = %q %v", attr, ok)
	}
	if c.BuildTime <= 0 {
		t.Error("build time not recorded")
	}
}

func TestBuildCorpusWithDTD(t *testing.T) {
	d, err := dtd.ParseString(gen.Figure1DTD)
	if err != nil {
		t.Fatal(err)
	}
	c := BuildCorpus(gen.Figure1Corpus(), WithDTD(d))
	// The DTD governs classification: every label it declares is classified.
	cats := c.Cls.Categories()
	for _, name := range d.ElementNames() {
		if _, ok := cats[name]; !ok {
			t.Errorf("declared label %q not classified", name)
		}
	}
	if got := c.Cls.Entities(); len(got) != 3 {
		t.Errorf("entities with DTD = %v", got)
	}
}

// TestPipelineFigure1 runs the complete demo flow on the running example:
// query "Texas apparel retailer" returns the Brook Brothers result, whose
// IList matches Figure 3 and whose snippet matches Figure 2's content.
func TestPipelineFigure1(t *testing.T) {
	c := BuildCorpus(gen.Figure1Corpus())
	out, err := Pipeline(c, gen.Figure1Query, 13, search.Options{DistinctAnchors: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 1 {
		t.Fatalf("results = %d, want 1 (only Brook Brothers is in Texas)", len(out))
	}
	sr := out[0]
	if sr.Result.Anchor.Label != "retailer" {
		t.Errorf("anchor = %s", sr.Result.Anchor.Label)
	}
	ilist := sr.IList.String()
	if !strings.Contains(ilist, "Brook Brothers, Houston") {
		t.Errorf("IList = %s", ilist)
	}
	if sr.Snippet.Edges > 13 {
		t.Errorf("snippet edges = %d", sr.Snippet.Edges)
	}
	text := xmltree.RenderInline(sr.Snippet.Root)
	for _, want := range []string{"Brook Brothers", "Houston", "Texas"} {
		if !strings.Contains(text, want) {
			t.Errorf("snippet missing %q: %s", want, text)
		}
	}
}

func TestGeneratorExact(t *testing.T) {
	c := BuildCorpus(gen.Figure1Corpus())
	out, err := Pipeline(c, gen.Figure1Query, 6, search.Options{})
	if err != nil || len(out) != 1 {
		t.Fatalf("pipeline: %v, %d results", err, len(out))
	}
	g := NewGenerator(c)
	g.Algorithm = AlgExact
	g.Exact.MaxInstancesPerItem = 3
	g.Exact.MaxExpansions = 100000
	e := g.ForResult(out[0].Result, gen.Figure1Query, 6)
	if e.Snippet.Edges > 6 {
		t.Errorf("exact edges = %d", e.Snippet.Edges)
	}
	if len(e.Snippet.Covered) < len(out[0].Snippet.Covered) {
		t.Errorf("exact covered %d < greedy %d",
			len(e.Snippet.Covered), len(out[0].Snippet.Covered))
	}
}

func TestPipelineNoResults(t *testing.T) {
	c := BuildCorpus(gen.Figure1Corpus())
	out, err := Pipeline(c, "zzz qqq", 6, search.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 0 {
		t.Errorf("results = %d", len(out))
	}
	if _, err := Pipeline(c, "", 6, search.Options{}); err == nil {
		t.Error("empty query should error")
	}
}

// TestDerivedDecodesOnce: a deferred snippet's artifacts are decoded from its
// record by the first reader, once, however many readers race for them, and
// every reader gets that one snippet; the deferred snippet itself never
// changes, and a snippet made here is its own derivation.
func TestDerivedDecodesOnce(t *testing.T) {
	var decodes atomic.Int32
	decode := func(enc string) (*selector.Snippet, *ilist.IList) {
		decodes.Add(1)
		return &selector.Snippet{Root: xmltree.Elem(enc), Edges: 0}, &ilist.IList{KeyValue: "k"}
	}
	g := NewServedSnippets(1)[0].set("store", decode, "<store/>", 0, "k", []string{"store"}, 4)
	if pending, n := g.Encoded(); !pending || n != len("store") {
		t.Fatalf("Encoded() = %v, %d before any read", pending, n)
	}
	const readers = 8
	got := make([]*Generated, readers)
	var start, done sync.WaitGroup
	start.Add(1)
	for r := range readers {
		done.Add(1)
		go func() {
			defer done.Done()
			start.Wait()
			got[r] = g.Derived()
		}()
	}
	start.Done()
	done.Wait()
	if n := decodes.Load(); n != 1 {
		t.Fatalf("%d decodes, want 1", n)
	}
	for _, d := range got {
		if d != got[0] || d == g || d.Snippet.Root.Label != "store" || d.XML != g.XML || d.ResultKey != "k" || d.Bound != 4 {
			t.Fatalf("readers saw different or incomplete snippets")
		}
	}
	if pending, _ := g.Encoded(); pending || g.Snippet != nil || g.IList != nil {
		t.Fatal("after the decode: still pending, or the deferred snippet changed")
	}
	local := NewGenerator(BuildCorpus(gen.Figure1Corpus())).ForTree(gen.Figure1Corpus(), "texas apparel retailer", 13)
	if local.Derived() != local || local.Edges != local.Snippet.Edges || local.ResultKey != local.IList.KeyValue {
		t.Fatal("a snippet made here is not its own derivation, with its edges and key")
	}
}
