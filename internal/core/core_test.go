package core

import (
	"strings"
	"testing"

	"extract/internal/dtd"
	"extract/internal/gen"
	"extract/internal/search"
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
