package persist

import (
	"bytes"
	"testing"

	"extract/internal/core"
	"extract/internal/dtd"
	"extract/internal/gen"
	"extract/xmltree"
)

const losslessDTD = `
<!ELEMENT r (item*, note?)>
<!ELEMENT item (name)>
<!ELEMENT name (#PCDATA)>
<!ELEMENT note (#PCDATA)>
<!ELEMENT ghost (item*)>
<!ATTLIST item id ID #REQUIRED>
`

// TestRoundTripLosslessDTD: the packed format persists the DTD's
// classification decisions and the DOCTYPE internal subset, so a
// round-tripped corpus classifies, re-saves and re-serializes exactly like
// the original — including labels the DTD declares but the instance never
// uses (the legacy format dropped all of this).
func TestRoundTripLosslessDTD(t *testing.T) {
	d, err := dtd.ParseString(losslessDTD)
	if err != nil {
		t.Fatal(err)
	}
	doc, err := xmltree.ParseString(`<r><item id="1"><name>solo</name></item></r>`)
	if err != nil {
		t.Fatal(err)
	}
	doc.InternalSubset = losslessDTD
	c := core.BuildCorpus(doc, core.WithDTD(d))

	loaded := roundTrip(t, c)
	if loaded.Doc.InternalSubset != losslessDTD {
		t.Errorf("internal subset dropped: %q", loaded.Doc.InternalSubset)
	}
	// "ghost" is declared but never instantiated; its classification must
	// survive (it classifies from the DTD's content model).
	if got, want := loaded.Cls.OfLabel("ghost"), c.Cls.OfLabel("ghost"); got != want {
		t.Errorf("ghost category = %v, want %v", got, want)
	}
	wantCats := c.Cls.Categories()
	gotCats := loaded.Cls.Categories()
	if len(gotCats) != len(wantCats) {
		t.Fatalf("categories = %d labels, want %d", len(gotCats), len(wantCats))
	}
	for l, want := range wantCats {
		if gotCats[l] != want {
			t.Errorf("category[%q] = %v, want %v", l, gotCats[l], want)
		}
	}

	// Double round trip is byte-stable: save(load(save(c))) == save(c).
	var first, second bytes.Buffer
	if err := Save(&first, c); err != nil {
		t.Fatal(err)
	}
	if err := Save(&second, loaded); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(first.Bytes(), second.Bytes()) {
		t.Error("round trip is not byte-stable")
	}
}

// TestRoundTripPostingsExact: the restored index serves identical posting
// lists without rebuilding.
func TestRoundTripPostingsExact(t *testing.T) {
	postingsSurvive(t, `<s><a>red shirt</a><b kind="red">blue</b><red/></s>`)
}

// TestRoundTripMixedContent: a document whose text runs follow element
// subtrees saves to an image that loads — its posting lists are sorted, which
// the decoder insists on — and serves the same postings.
func TestRoundTripMixedContent(t *testing.T) {
	postingsSurvive(t, `<r><p>red <c><d>red</d><e>blue</e></c> red</p><p>blue<c/>blue p</p></r>`)
}

func postingsSurvive(t *testing.T, src string) {
	t.Helper()
	doc, err := xmltree.ParseString(src)
	if err != nil {
		t.Fatal(err)
	}
	c := core.BuildCorpus(doc)
	loaded := roundTrip(t, c)
	if got, want := loaded.Index.TotalPostings(), c.Index.TotalPostings(); got != want {
		t.Fatalf("total postings = %d, want %d", got, want)
	}
	if got, want := loaded.Index.LongestList(), c.Index.LongestList(); got != want {
		t.Fatalf("longest list = %d, want %d", got, want)
	}
	for _, kw := range c.Index.Vocabulary() {
		want := c.Index.List(kw)
		got := loaded.Index.List(kw)
		if got.Len() != want.Len() {
			t.Fatalf("%q: %d postings, want %d", kw, got.Len(), want.Len())
		}
		for i := range want.Ords {
			if got.Ords[i] != want.Ords[i] || got.Fields[i] != want.Fields[i] {
				t.Fatalf("%q posting %d = (%d,%v), want (%d,%v)",
					kw, i, got.Ords[i], got.Fields[i], want.Ords[i], want.Fields[i])
			}
			if got.Nodes[i].Ord != int(got.Ords[i]) {
				t.Fatalf("%q posting %d: node/ord mismatch", kw, i)
			}
		}
	}
}

// TestRoundTripSymbolIDs: the decoder numbers labels and values from the
// string-table references of the image, and arrives at exactly the ids
// finalizing the parsed document assigned.
func TestRoundTripSymbolIDs(t *testing.T) {
	docs := []*xmltree.Document{
		gen.Figure1Corpus(),
		gen.Stores(gen.StoresConfig{Retailers: 3, StoresPerRetailer: 2, ClothesPerStore: 4, Seed: 3}),
		gen.Movies(gen.MoviesConfig{Movies: 6, Seed: 4}),
	}
	mixed, err := xmltree.ParseString(`<r a="r"><p>a <r>p</r> a</p><a>r</a><p/></r>`)
	if err != nil {
		t.Fatal(err)
	}
	for di, doc := range append(docs, mixed) {
		loaded := roundTrip(t, core.BuildCorpus(doc))
		for i, n := range loaded.Doc.Nodes() {
			if want := doc.Nodes()[i]; n.Sym != want.Sym {
				t.Fatalf("document %d node %d (%v): symbol id %d, want %d", di, i, n, n.Sym, want.Sym)
			}
		}
	}
}
