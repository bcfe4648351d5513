package extract

import (
	"strings"
	"testing"

	"extract/internal/gen"
	"extract/xmltree"
)

func figure1Corpus(t *testing.T) *Corpus {
	t.Helper()
	return FromDocument(gen.Figure1Corpus(), nil)
}

func TestLoadString(t *testing.T) {
	c, err := LoadString(`<shops><shop><name>A</name></shop><shop><name>B</name></shop></shops>`)
	if err != nil {
		t.Fatal(err)
	}
	st := c.Stats()
	if st.Nodes == 0 || st.DistinctKeywords == 0 {
		t.Errorf("stats = %+v", st)
	}
	if len(st.Entities) != 1 || st.Entities[0] != "shop" {
		t.Errorf("entities = %v", st.Entities)
	}
	if attr, ok := c.EntityKey("shop"); !ok || attr != "name" {
		t.Errorf("shop key = %q %v", attr, ok)
	}
}

func TestLoadErrors(t *testing.T) {
	if _, err := LoadString(`<a>`); err == nil {
		t.Error("malformed XML accepted")
	}
	if _, err := LoadString(`<a/>`, WithDTD(`<!BAD`)); err == nil {
		t.Error("malformed DTD accepted")
	}
	if _, err := LoadString(`<a><b/><b/><b/></a>`, WithMaxNodes(2)); err == nil {
		t.Error("node limit ignored")
	}
	if _, err := LoadFile("/nonexistent/file.xml"); err == nil {
		t.Error("missing file accepted")
	}
	if _, err := LoadString(`<a/>`, WithDTDFile("/nonexistent.dtd")); err == nil {
		t.Error("missing DTD file accepted")
	}
}

func TestLoadWithDTD(t *testing.T) {
	c, err := LoadString(
		`<r><item><id>1</id></item></r>`,
		WithDTD(`<!ELEMENT r (item*)><!ELEMENT item (id)><!ELEMENT id (#PCDATA)>`),
	)
	if err != nil {
		t.Fatal(err)
	}
	if got := c.Stats().Entities; len(got) != 1 || got[0] != "item" {
		t.Errorf("entities = %v (DTD should star item)", got)
	}
}

// TestQueryFigure1 exercises the full public pipeline on the paper's
// running example.
func TestQueryFigure1(t *testing.T) {
	c := figure1Corpus(t)
	hits, err := c.Query(gen.Figure1Query, 13)
	if err != nil {
		t.Fatal(err)
	}
	if len(hits) != 1 {
		t.Fatalf("hits = %d", len(hits))
	}
	h := hits[0]
	if h.Snippet.Edges() > 13 {
		t.Errorf("edges = %d", h.Snippet.Edges())
	}
	il := strings.Join(h.Snippet.IList(), ", ")
	if !strings.Contains(il, "Brook Brothers, Houston") {
		t.Errorf("IList = %s", il)
	}
	if h.Snippet.ResultKey() != "Brook Brothers" {
		t.Errorf("result key = %q", h.Snippet.ResultKey())
	}
	if re := h.Snippet.ReturnEntities(); len(re) == 0 || re[0] != "retailer" {
		t.Errorf("return entities = %v", re)
	}
	if cov := h.Snippet.Coverage(); cov < 0.8 || cov > 1 {
		t.Errorf("coverage = %f", cov)
	}
	if len(h.Snippet.Covered())+len(h.Snippet.Skipped()) != len(h.Snippet.IList()) {
		t.Error("covered+skipped != IList length")
	}
	// Renderings are consistent and non-empty.
	if h.Snippet.Render() == "" || h.Snippet.Inline() == "" || h.Snippet.XML() == "" {
		t.Error("empty renderings")
	}
	if h.Result.Size() < h.Snippet.Edges() {
		t.Error("snippet larger than result")
	}
	// Snippet XML reparses.
	if _, err := xmltree.ParseString(h.Snippet.XML()); err != nil {
		t.Errorf("snippet XML invalid: %v\n%s", err, h.Snippet.XML())
	}
}

func TestSearchOptions(t *testing.T) {
	c := figure1Corpus(t)
	rs, err := c.Search("texas", WithMaxResults(2))
	if err != nil {
		t.Fatal(err)
	}
	if len(rs) > 2 {
		t.Errorf("results = %d", len(rs))
	}
	if _, err := c.Search("texas", WithELCA()); err != nil {
		t.Errorf("elca: %v", err)
	}
	trimmed, err := c.Search(gen.Figure1Query, WithTrimmedResults())
	if err != nil || len(trimmed) == 0 {
		t.Fatalf("trimmed: %v %d", err, len(trimmed))
	}
	full, _ := c.Search(gen.Figure1Query)
	if trimmed[0].Size() >= full[0].Size() {
		t.Errorf("trimmed %d >= full %d", trimmed[0].Size(), full[0].Size())
	}
}

func TestQueryErrors(t *testing.T) {
	c := figure1Corpus(t)
	if _, err := c.Query("", 5); err == nil {
		t.Error("empty query accepted")
	}
	if _, err := c.Query("texas", -1); err == nil {
		t.Error("negative bound accepted")
	}
	hits, err := c.Query("doesnotappear", 5)
	if err != nil || len(hits) != 0 {
		t.Errorf("no-match query: %v, %d hits", err, len(hits))
	}
}

func TestSnippetForExternalTree(t *testing.T) {
	// Snippets for result trees from an external engine: hand the
	// generator the Figure 1 result directly.
	c := figure1Corpus(t)
	s := c.SnippetForTree(gen.Figure1Result(), gen.Figure1Query, 13)
	if s.Edges() > 13 || s.ResultKey() != "Brook Brothers" {
		t.Errorf("external tree snippet: edges=%d key=%q", s.Edges(), s.ResultKey())
	}
}

func TestExactSelectionOption(t *testing.T) {
	c := figure1Corpus(t)
	rs, err := c.Search("suit man")
	if err != nil || len(rs) == 0 {
		t.Fatalf("search: %v", err)
	}
	g := must(c.Snippet(rs[0], "suit man", 4))
	e := must(c.Snippet(rs[0], "suit man", 4, WithExactSelection()))
	if len(e.Covered()) < len(g.Covered()) {
		t.Errorf("exact %v < greedy %v", e.Covered(), g.Covered())
	}
}

func TestTokenize(t *testing.T) {
	got := Tokenize("Texas, apparel; Retailer")
	if len(got) != 3 || got[0] != "texas" || got[2] != "retailer" {
		t.Errorf("Tokenize = %v", got)
	}
}
