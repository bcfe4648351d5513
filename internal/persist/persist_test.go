package persist

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"path/filepath"
	"runtime"
	"strings"
	"testing"

	"extract/internal/bin"
	"extract/internal/core"
	"extract/internal/dtd"
	"extract/internal/gen"
	"extract/internal/search"
	"extract/xmltree"
)

func roundTrip(t *testing.T, c *core.Corpus) *core.Corpus {
	t.Helper()
	var buf bytes.Buffer
	if err := Save(&buf, c); err != nil {
		t.Fatalf("Save: %v", err)
	}
	loaded, err := Load(&buf)
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	return loaded
}

func TestRoundTripTree(t *testing.T) {
	c := core.BuildCorpus(gen.Figure1Corpus())
	loaded := roundTrip(t, c)
	if loaded.Doc.Len() != c.Doc.Len() {
		t.Fatalf("nodes = %d, want %d", loaded.Doc.Len(), c.Doc.Len())
	}
	if xmltree.RenderInline(loaded.Doc.Root) != xmltree.RenderInline(c.Doc.Root) {
		t.Error("tree changed across round trip")
	}
	// Positions, intervals and parents are rebuilt identically.
	for i, n := range c.Doc.Nodes() {
		l := loaded.Doc.Nodes()[i]
		if l.Ord != n.Ord || l.Start != n.Start || l.End != n.End ||
			(l.Parent == nil) != (n.Parent == nil) || (n.Parent != nil && l.Parent.Ord != n.Parent.Ord) {
			t.Fatalf("finalization mismatch at ord %d: %v vs %v", i, l, n)
		}
	}
}

// Save→Load is linear in nodes whatever the tree's shape: the loader sizes
// nothing from Σ depths, which on a 3 000-deep chain is 4.5 M ints (36 MB)
// and on a CRC-valid 200 000-deep one 2·10¹⁰. And the check that a forest is
// refused, which used to sit in the depth pre-pass, still fires.
func TestDeepChainAllocatesLinearly(t *testing.T) {
	const depth, perNode = 3000, 2048
	root := xmltree.Txt("leaf")
	for i := 0; i < depth; i++ {
		root = xmltree.Elem("e", root)
	}
	c := core.BuildCorpus(xmltree.NewDocument(root))
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	loaded := roundTrip(t, c)
	runtime.ReadMemStats(&after)
	if st := loaded.Doc.ComputeStats(); st.Nodes != depth+1 || st.MaxDepth != depth {
		t.Fatalf("chain loaded as %d nodes, depth %d", st.Nodes, st.MaxDepth)
	}
	if got := after.TotalAlloc - before.TotalAlloc; got > perNode*uint64(loaded.Doc.Len()) {
		t.Errorf("Save+Load allocated %d B for %d nodes, want at most %d a node", got, loaded.Doc.Len(), perNode)
	}

	// <a><b/><c/></a> with the root's child count patched 2 -> 1 and the
	// tree section's checksum refreshed: c arrives with no open parent.
	doc, err := xmltree.ParseString(`<a><b/><c/></a>`)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := Save(&buf, core.BuildCorpus(doc)); err != nil {
		t.Fatal(err)
	}
	img := buf.Bytes()
	table := len(magic) + 2
	off := table + 8*numSections
	for i := 0; i < secTree; i++ {
		off += int(binary.LittleEndian.Uint32(img[table+8*i:]))
	}
	tree := img[off : off+int(binary.LittleEndian.Uint32(img[table+8*secTree:]))]
	counts := tree[len(tree)-4*doc.Len():]
	if binary.LittleEndian.Uint32(counts) != 2 {
		t.Fatalf("root child count = %d, want 2", binary.LittleEndian.Uint32(counts))
	}
	binary.LittleEndian.PutUint32(counts, 1)
	binary.LittleEndian.PutUint32(img[table+8*secTree+4:], crc32.Checksum(tree, bin.CRC32C))
	if _, err := Load(bytes.NewReader(img)); !errors.Is(err, ErrBadFormat) || !strings.Contains(err.Error(), "outside the root subtree") {
		t.Errorf("two-root child-count slab: err = %v, want ErrBadFormat (outside the root subtree)", err)
	}
}

func TestRoundTripAnalysis(t *testing.T) {
	c := core.BuildCorpus(gen.Figure1Corpus())
	loaded := roundTrip(t, c)
	if got, want := loaded.Cls.Entities(), c.Cls.Entities(); strings.Join(got, ",") != strings.Join(want, ",") {
		t.Errorf("entities = %v, want %v", got, want)
	}
	if got, want := loaded.Cls.Attributes(), c.Cls.Attributes(); strings.Join(got, ",") != strings.Join(want, ",") {
		t.Errorf("attributes = %v, want %v", got, want)
	}
	attr, ok := loaded.Keys.KeyAttr("retailer")
	if !ok || attr != "name" {
		t.Errorf("retailer key = %q %v", attr, ok)
	}
	if loaded.Index.DistinctKeywords() != c.Index.DistinctKeywords() {
		t.Errorf("keywords = %d, want %d",
			loaded.Index.DistinctKeywords(), c.Index.DistinctKeywords())
	}
}

// TestRoundTripPreservesDTDDecisions: classification decisions that cannot
// be re-inferred from the instance survive persistence.
func TestRoundTripPreservesDTDDecisions(t *testing.T) {
	d, err := dtd.ParseString(`
<!ELEMENT r (item*)><!ELEMENT item (name)><!ELEMENT name (#PCDATA)>`)
	if err != nil {
		t.Fatal(err)
	}
	doc, err := xmltree.ParseString(`<r><item><name>solo</name></item></r>`)
	if err != nil {
		t.Fatal(err)
	}
	c := core.BuildCorpus(doc, core.WithDTD(d))
	if c.Cls.OfLabel("item") != 1 /* Entity */ {
		t.Fatal("premise: item should be entity via DTD")
	}
	loaded := roundTrip(t, c)
	if loaded.Cls.OfLabel("item").String() != "entity" {
		t.Errorf("item after round trip = %v", loaded.Cls.OfLabel("item"))
	}
}

// TestRoundTripPipeline: a loaded corpus answers queries identically.
func TestRoundTripPipeline(t *testing.T) {
	c := core.BuildCorpus(gen.Figure1Corpus())
	loaded := roundTrip(t, c)
	for _, corpus := range []*core.Corpus{c, loaded} {
		outs, err := core.Pipeline(corpus, gen.Figure1Query, 13, search.Options{DistinctAnchors: true})
		if err != nil || len(outs) != 1 {
			t.Fatalf("pipeline: %v (%d results)", err, len(outs))
		}
		if outs[0].IList.KeyValue != "Brook Brothers" {
			t.Errorf("key = %q", outs[0].IList.KeyValue)
		}
	}
}

func TestSaveLoadFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "corpus.xtix")
	c := core.BuildCorpus(gen.Figure5Corpus())
	if err := SaveFile(path, c); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if loaded.Doc.Len() != c.Doc.Len() {
		t.Errorf("nodes = %d", loaded.Doc.Len())
	}
	if _, err := LoadFile(filepath.Join(t.TempDir(), "missing")); err == nil {
		t.Error("missing file accepted")
	}
}

func TestLoadRejectsCorruption(t *testing.T) {
	c := core.BuildCorpus(gen.Figure5Corpus())
	var buf bytes.Buffer
	if err := Save(&buf, c); err != nil {
		t.Fatal(err)
	}
	good := buf.Bytes()

	cases := map[string][]byte{
		"empty":          {},
		"bad magic":      append([]byte("NOPE"), good[4:]...),
		"bad version":    append(append([]byte(nil), good[:4]...), append([]byte{99}, good[5:]...)...),
		"truncated 10":   good[:10],
		"truncated half": good[:len(good)/2],
	}
	for name, data := range cases {
		if _, err := Load(bytes.NewReader(data)); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
	// Flipping a byte in the tree section should not panic (errors are
	// acceptable; silent misparse of structure is not tested here since
	// some byte flips only change values).
	for i := 5; i < len(good); i += 97 {
		mut := append([]byte(nil), good...)
		mut[i] ^= 0xff
		func() {
			defer func() {
				if r := recover(); r != nil {
					t.Errorf("panic on corruption at byte %d: %v", i, r)
				}
			}()
			_, _ = Load(bytes.NewReader(mut))
		}()
	}
}

func TestEmptyishCorpus(t *testing.T) {
	doc, err := xmltree.ParseString(`<only/>`)
	if err != nil {
		t.Fatal(err)
	}
	c := core.BuildCorpus(doc)
	loaded := roundTrip(t, c)
	if loaded.Doc.Root.Label != "only" || loaded.Doc.Len() != 1 {
		t.Errorf("loaded = %v", loaded.Doc.Root)
	}
}

func TestBinarySmallerThanXML(t *testing.T) {
	c := core.BuildCorpus(gen.Stores(gen.StoresConfig{Retailers: 3, StoresPerRetailer: 4, ClothesPerStore: 30, Seed: 1}))
	var buf bytes.Buffer
	if err := Save(&buf, c); err != nil {
		t.Fatal(err)
	}
	xmlLen := len(xmltree.XMLString(c.Doc.Root))
	if buf.Len() >= xmlLen {
		t.Errorf("binary %d >= xml %d", buf.Len(), xmlLen)
	}
}
