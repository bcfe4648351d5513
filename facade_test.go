package extract

import (
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"extract/xmltree"
)

// must returns v, panicking on err: for the tree accessors of results a test
// expects to read (a local result's never fail).
func must[T any](v T, err error) T {
	if err != nil {
		panic(err)
	}
	return v
}

func TestXPathSelection(t *testing.T) {
	c, err := LoadString(`
<retailers>
  <retailer><name>Brook Brothers</name>
    <store><city>Houston</city></store>
    <store><city>Austin</city></store>
  </retailer>
  <retailer><name>Levis</name>
    <store><city>Fresno</city></store>
  </retailer>
</retailers>`)
	if err != nil {
		t.Fatal(err)
	}
	rs, err := c.XPath(`//retailer[store/city='Houston']`)
	if err != nil {
		t.Fatal(err)
	}
	if len(rs) != 1 {
		t.Fatalf("results = %d", len(rs))
	}
	// The selected subtree feeds the snippet generator like any result.
	s := must(c.Snippet(rs[0], "houston retailer", 4))
	if s.ResultKey() != "Brook Brothers" {
		t.Errorf("key = %q", s.ResultKey())
	}
	if !strings.Contains(s.Inline(), "Houston") {
		t.Errorf("snippet = %s", s.Inline())
	}
	// Bad expression surfaces the compile error.
	if _, err := c.XPath(`[[`); err == nil {
		t.Error("bad xpath accepted")
	}
	// Text selections are skipped.
	rs, err = c.XPath(`//city/text()`)
	if err != nil || len(rs) != 0 {
		t.Errorf("text selection = %d (%v)", len(rs), err)
	}
}

// An XPath result is a view of the corpus document, and may be rooted below
// an entity: here <info> under <part>, holding an attribute of that outer
// part next to inner parts of the same label and value. The outer entity is
// not part of the result, so it must not lend the attribute a feature: once
// "name" pulls info/name into the snippet, an owner climb that left the
// result would count the result key (part, name, bolt) as shown. The snippet
// of the view must be the snippet of a detached copy of the same subtree.
func TestSnippetOfViewBelowEntity(t *testing.T) {
	c, err := LoadString(`
<catalog>
  <part><name>bolt</name>
    <info><name>bolt</name>
      <part><name>bolt</name><grade>a</grade></part>
      <part><name>bolt</name><grade>b</grade></part>
    </info>
  </part>
  <part><name>nut</name><info><name>nut</name></info></part>
</catalog>`)
	if err != nil {
		t.Fatal(err)
	}
	rs, err := c.XPath(`//catalog/part/info`)
	if err != nil || len(rs) != 2 {
		t.Fatalf("results = %d (%v)", len(rs), err)
	}
	view := rs[0]
	if p := must(view.Root()).Parent; p == nil || p.Label != "part" {
		t.Fatalf("result root parent = %v, want the outer part", p)
	}
	detached := xmltree.NewDocument(xmltree.DeepCopy(must(view.Root())))
	for bound := 0; bound <= 6; bound++ {
		got := must(c.Snippet(view, "name", bound))
		want := c.SnippetForTree(detached, "name", bound)
		if got.XML() != want.XML() {
			t.Errorf("bound %d: view snippet %s, detached copy %s", bound, got.XML(), want.XML())
		}
		if g, w := got.Covered(), want.Covered(); !slices.Equal(g, w) {
			t.Errorf("bound %d: covered %v, detached copy %v", bound, g, w)
		}
		if g, w := got.Skipped(), want.Skipped(); !slices.Equal(g, w) {
			t.Errorf("bound %d: skipped %v, detached copy %v", bound, g, w)
		}
	}
}

func TestSuggest(t *testing.T) {
	c, err := LoadString(`
<shops>
  <shop><city>Houston</city></shop>
  <shop><city>Houston</city></shop>
  <shop><city>Hopeville</city></shop>
  <shop><city>Austin</city></shop>
</shops>`)
	if err != nil {
		t.Fatal(err)
	}
	got := c.Suggest("ho", 5)
	if len(got) != 2 || got[0] != "houston" || got[1] != "hopeville" {
		t.Errorf("Suggest(ho) = %v", got)
	}
	if got := c.Suggest("ho", 1); len(got) != 1 || got[0] != "houston" {
		t.Errorf("Suggest k=1 = %v", got)
	}
	if got := c.Suggest("zz", 5); len(got) != 0 {
		t.Errorf("Suggest(zz) = %v", got)
	}
	if got := c.Suggest("two words", 5); got != nil {
		t.Errorf("multi-token prefix = %v", got)
	}
}

func TestLoadFiles(t *testing.T) {
	dir := t.TempDir()
	a := filepath.Join(dir, "a.xml")
	b := filepath.Join(dir, "b.xml")
	if err := os.WriteFile(a, []byte(`<movies><movie><title>A</title></movie><movie><title>B</title></movie></movies>`), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(b, []byte(`<stores><store><name>S1</name></store><store><name>S2</name></store></stores>`), 0o644); err != nil {
		t.Fatal(err)
	}
	c, err := LoadFiles([]string{a, b})
	if err != nil {
		t.Fatal(err)
	}
	ents := c.Stats().Entities
	if strings.Join(ents, ",") != "movie,store" {
		t.Errorf("entities = %v", ents)
	}
	hits, err := c.Query("title a", 3)
	if err != nil || len(hits) != 1 {
		t.Fatalf("cross-file query: %d (%v)", len(hits), err)
	}
	if _, err := LoadFiles(nil); err == nil {
		t.Error("empty path list accepted")
	}
	if _, err := LoadFiles([]string{filepath.Join(dir, "missing.xml")}); err == nil {
		t.Error("missing file accepted")
	}
}

func TestDiversify(t *testing.T) {
	// Ten identical stores and one different: at a tiny bound the ten
	// collapse into one group.
	var b strings.Builder
	b.WriteString("<stores>")
	for i := 0; i < 10; i++ {
		b.WriteString(`<store><state>Texas</state><merchandises><clothes><category>jeans</category></clothes></merchandises></store>`)
	}
	b.WriteString(`<store><state>Texas</state><merchandises><clothes><category>suit</category></clothes></merchandises></store>`)
	b.WriteString("</stores>")
	c, err := LoadString(b.String())
	if err != nil {
		t.Fatal(err)
	}
	// Bound 4 fits the distinguishing category (jeans vs suit); the ten
	// identical stores still collapse.
	hits, err := c.Query("store texas", 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(hits) != 11 {
		t.Fatalf("hits = %d", len(hits))
	}
	groups := Diversify(hits)
	if len(groups) != 2 {
		t.Fatalf("groups = %d", len(groups))
	}
	if groups[0].Count+groups[1].Count != 11 {
		t.Errorf("counts = %d + %d", groups[0].Count, groups[1].Count)
	}
	if groups[0].Count != 10 && groups[1].Count != 10 {
		t.Errorf("no group of 10: %d/%d", groups[0].Count, groups[1].Count)
	}
	if groups[0].Hit == nil || len(groups[0].Hits) != groups[0].Count {
		t.Error("group membership inconsistent")
	}
}
