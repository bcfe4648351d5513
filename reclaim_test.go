package extract

import (
	"fmt"
	"runtime"
	"strings"
	"testing"
	"time"

	"extract/internal/gen"
	"extract/internal/shard"
	"extract/xmltree"
)

// TestReplacedGenerationIsReclaimed: what the snippet pipeline keeps between
// queries — pooled collectors and selections, the per-index statistics of a
// document's root — must not keep a replaced generation reachable. A corpus
// answers queries of every kind (shard-local results, whole-document
// fallbacks, XPath selections, cached and uncached), is reloaded onto a
// document that shares no shard with it, answers again, and the old
// generation's shard documents and its fallback document must then be
// garbage: their finalizers run.
func TestReplacedGenerationIsReclaimed(t *testing.T) {
	xmlA := xmltree.XMLString(gen.Stores(gen.StoresConfig{Retailers: 4, StoresPerRetailer: 3, ClothesPerStore: 4, Seed: 51}).Root)
	xmlB := xmltree.XMLString(gen.Stores(gen.StoresConfig{Retailers: 4, StoresPerRetailer: 3, ClothesPerStore: 4, Seed: 52}).Root)
	c, err := LoadString(xmlA, WithShards(3), WithWorkers(2))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	exercise := func() {
		t.Helper()
		root := c.data.Load().gen.Corpus.Shards()[0].Doc.Root.Label
		for _, q := range []string{"store texas", "store", "retailer jeans", root, root + " store", `"` + root + `"`} {
			for pass := 0; pass < 2; pass++ { // computed, then replayed
				if _, err := c.Query(q, 8); err != nil {
					t.Fatalf("query %q: %v", q, err)
				}
			}
			if _, err := c.Query(q, 8, WithELCA()); err != nil {
				t.Fatalf("ELCA query %q: %v", q, err)
			}
		}
		rs, err := c.XPath("//store")
		if err != nil || len(rs) == 0 {
			t.Fatalf("xpath: %d results, err %v", len(rs), err)
		}
		for _, r := range rs[:2] {
			c.Snippet(r, "store city", 6)
		}
	}
	exercise()

	// One finalizer per document of the old generation. A Document is its
	// own allocation and nothing inside the generation points back at it,
	// so it is reclaimed exactly when the generation is.
	old := c.data.Load().gen.Corpus
	docs := append([]*xmltree.Document{old.Fallback().Doc}, func() (ds []*xmltree.Document) {
		for _, s := range old.Shards() {
			ds = append(ds, s.Doc)
		}
		return ds
	}()...)
	reclaimed := make(chan struct{}, len(docs))
	for _, d := range docs {
		runtime.SetFinalizer(d, func(*xmltree.Document) { reclaimed <- struct{}{} })
	}
	want := len(docs)
	old, docs = nil, nil

	stats, err := c.ReloadDelta(strings.NewReader(xmlB), WithShards(3))
	if err != nil || stats.Reused != 0 {
		t.Fatalf("reload: %+v, err %v; want every shard rebuilt", stats, err)
	}
	exercise()

	deadline := time.After(10 * time.Second)
	for got := 0; got < want; {
		runtime.GC() // pools give up their victims on the second cycle
		select {
		case <-reclaimed:
			got++
		case <-time.After(20 * time.Millisecond):
		case <-deadline:
			t.Fatalf("%d of the replaced generation's %d documents were reclaimed", got, want)
		}
	}
}

// TestDeltaReloadReleasesDiscardedParse pins the parser's retention rule. A
// delta reload parses the whole file but keeps only the block it rebuilds:
// once it returns, the parse's root and every block adopted from the serving
// generation instead must be garbage. An allocation the parser shared
// between top-level entities — one node slab, one child arena — would let
// the rebuilt block's nodes pin them, and through Parent/Children the whole
// parse, for the life of the new generation.
func TestDeltaReloadReleasesDiscardedParse(t *testing.T) {
	cfg := gen.StoresConfig{Retailers: 8, StoresPerRetailer: 3, ClothesPerStore: 4, Seed: 61}
	xmlA := xmltree.XMLString(gen.Stores(cfg).Root)
	docB := gen.Stores(cfg)
	edited := false
	docB.Root.Children[len(docB.Root.Children)-1].Walk(func(n *xmltree.Node) bool {
		if !edited && n.IsText() {
			n.Value, edited = "zzzrelocated", true
		}
		return !edited
	})
	xmlB := xmltree.XMLString(docB.Root)

	c, err := LoadString(xmlA, WithShards(4))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	var oldDocs []*xmltree.Document
	for _, s := range c.data.Load().gen.Corpus.Shards() {
		oldDocs = append(oldDocs, s.Doc)
	}

	// The parse as the reload sees it, before the build moves anything: its
	// root, and the last node in preorder of each block's last entity.
	var root *xmltree.Node
	var blockNode []*xmltree.Node
	testHookParsed = func(doc *xmltree.Document) {
		root = doc.Root
		cuts := shard.Cuts(doc, 4)
		for b := 0; b+1 < len(cuts); b++ {
			blockNode = append(blockNode, doc.ByOrd(int(doc.Root.Children[cuts[b+1]-1].End)))
		}
	}
	stats, err := c.ReloadDelta(strings.NewReader(xmlB), WithShards(4))
	testHookParsed = nil
	if err != nil || stats.Rebuilt != 1 || stats.Reused != 3 {
		t.Fatalf("reload: %+v, err %v; want 1 shard rebuilt, 3 reused", stats, err)
	}

	released := make(chan string, 1+len(blockNode))
	runtime.AddCleanup(root, func(what string) { released <- what }, "the parse's root")
	want := 1
	for b, s := range c.data.Load().gen.Corpus.Shards() {
		if s.Doc == oldDocs[b] { // adopted: the parse's block b was discarded
			runtime.AddCleanup(blockNode[b], func(what string) { released <- what }, fmt.Sprintf("a node of adopted block %d", b))
			want++
		}
	}
	root, blockNode, oldDocs = nil, nil, nil

	deadline := time.After(10 * time.Second)
	for got := 0; got < want; {
		runtime.GC()
		select {
		case <-released:
			got++
		case <-time.After(20 * time.Millisecond):
		case <-deadline:
			t.Fatalf("%d of %d discarded parts of the reload's parse were reclaimed", got, want)
		}
	}
}
