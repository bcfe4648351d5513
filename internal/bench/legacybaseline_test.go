package bench

import (
	"bufio"
	"bytes"
	"reflect"
	"testing"

	"extract/internal/core"
	"extract/internal/gen"
	"extract/internal/persist"
	"extract/xmltree"
)

// The frozen rebuild yardstick must still load what it saves, to the corpus
// the product's own format round-trips to — same tree, classification and
// keys, same answers from the rebuilt index — or load_rebuild_ns and
// load_packed_ns time the loading of different things.
func TestLegacyYardstickMatchesPersist(t *testing.T) {
	c := core.BuildCorpus(gen.Figure1Corpus())

	var legacy, packed bytes.Buffer
	if err := saveLegacy(&legacy, c); err != nil {
		t.Fatal(err)
	}
	if err := persist.Save(&packed, c); err != nil {
		t.Fatal(err)
	}
	got, err := loadLegacy(bufio.NewReader(&legacy))
	if err != nil {
		t.Fatal(err)
	}
	want, err := persist.Load(&packed)
	if err != nil {
		t.Fatal(err)
	}

	if got.Doc.Len() != want.Doc.Len() || got.Doc.Len() != c.Doc.Len() {
		t.Fatalf("%d nodes from the yardstick, %d from persist, %d built", got.Doc.Len(), want.Doc.Len(), c.Doc.Len())
	}
	if xmltree.XMLString(got.Doc.Root) != xmltree.XMLString(want.Doc.Root) {
		t.Fatal("the yardstick's tree differs from persist's")
	}
	if !reflect.DeepEqual(got.Cls.Categories(), want.Cls.Categories()) {
		t.Fatalf("classification: yardstick %v, persist %v", got.Cls.Categories(), want.Cls.Categories())
	}
	if !reflect.DeepEqual(got.Keys.Entities(), want.Keys.Entities()) {
		t.Fatalf("keyed entities: yardstick %v, persist %v", got.Keys.Entities(), want.Keys.Entities())
	}
	for _, e := range want.Keys.Entities() {
		g, _ := got.Keys.KeyAttr(e)
		w, _ := want.Keys.KeyAttr(e)
		if g != w {
			t.Fatalf("key of %q: yardstick %q, persist %q", e, g, w)
		}
	}
	if !reflect.DeepEqual(got.Index.Vocabulary(), want.Index.Vocabulary()) {
		t.Fatal("the yardstick's rebuilt index has a different vocabulary")
	}
	for _, kw := range want.Index.Vocabulary() {
		if !reflect.DeepEqual(got.Index.List(kw).Ords, want.Index.List(kw).Ords) {
			t.Fatalf("postings of %q differ", kw)
		}
	}
}
