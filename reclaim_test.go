package extract

import (
	"runtime"
	"strings"
	"testing"
	"time"

	"extract/internal/gen"
	"extract/xmltree"
)

// TestReplacedGenerationIsReclaimed: what the snippet pipeline keeps between
// queries — pooled collectors and selections, the per-index statistics of a
// document's root — must not keep a replaced generation reachable. A corpus
// answers queries of every kind (shard-local results, whole-document
// results, XPath selections, cached and uncached), is reloaded onto a
// document that shares no shard with it, answers again, and the old
// generation's shard documents must then be garbage: their finalizers run.
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
	var docs []*xmltree.Document
	for _, s := range old.Shards() {
		docs = append(docs, s.Doc)
	}
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

// TestDeltaReloadReleasesDiscardedParse pins what a delta reload parses and
// what it keeps of the input. It parses a segment exactly when its bytes are
// new to the serving generation — not one byte of an adopted block, nor of
// an unchanged entity of the block it rebuilds (that one is copied); and
// once it returns, the split it read the input through — the input bytes
// with it — must be garbage. A node of the rebuilt block that pinned the
// split would keep the whole input alive for the life of the new
// generation.
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
	served := map[string]bool{} // the serving generation's segment bytes
	spA := xmltree.SplitBytes([]byte(xmlA))
	for i := range spA.Segments {
		served[string(spA.Bytes(i))] = true
	}

	// The input as the reload reads it: cut at the root's children, one
	// segment per top-level entity.
	var sp *xmltree.Split
	testHookSplit = func(s *xmltree.Split) { sp = s }
	stats, err := c.ReloadDelta(strings.NewReader(xmlB), WithShards(4))
	testHookSplit = nil
	if err != nil || stats.Rebuilt != 1 || stats.Reused != 3 {
		t.Fatalf("reload: %+v, err %v; want 1 shard rebuilt, 3 reused", stats, err)
	}
	if sp == nil {
		t.Fatal("the reload did not split its input")
	}
	for i := range sp.Segments {
		if seen := served[string(sp.Bytes(i))]; sp.Parsed(i) == seen {
			t.Fatalf("segment %d (bytes served: %v) parsed: %v", i, seen, sp.Parsed(i))
		}
	}

	released := make(chan struct{}, 1)
	runtime.AddCleanup(sp, func(struct{}) { released <- struct{}{} }, struct{}{})
	sp = nil

	deadline := time.After(10 * time.Second)
	for {
		runtime.GC()
		select {
		case <-released:
			return
		case <-time.After(20 * time.Millisecond):
		case <-deadline:
			t.Fatal("the reload's split, and the input bytes it holds, were not reclaimed")
		}
	}
}

// TestCopiedSegmentsReleaseReplacedGeneration: a delta reload that copies
// the unchanged entities of the block it rebuilds out of the serving
// generation's shard document keeps nothing of that document. A one-entity
// edit in a two-entity block parses the one and copies the other; after the
// swap, and queries on both sides of it, the replaced shard document must be
// garbage, and its entities' nodes with it (a copy whose nodes pointed at
// the originals — an Origin — would keep them): their cleanups run.
func TestCopiedSegmentsReleaseReplacedGeneration(t *testing.T) {
	cfg := gen.StoresConfig{Retailers: 8, StoresPerRetailer: 3, ClothesPerStore: 4, Seed: 62}
	xmlA := xmltree.XMLString(gen.Stores(cfg).Root)
	docB := gen.Stores(cfg)
	docB.Root.Children[2].Children[0].Children[0].Value = "zzzrenamed"
	xmlB := xmltree.XMLString(docB.Root)

	c, err := LoadString(xmlA, WithShards(4))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	query := func() {
		t.Helper()
		for _, q := range []string{"store texas", "retailer", "zzzrenamed"} {
			if _, err := c.Query(q, 8); err != nil {
				t.Fatalf("query %q: %v", q, err)
			}
		}
	}
	query()
	old := c.data.Load().gen.Corpus.Shards()

	stats, err := c.ReloadDelta(strings.NewReader(xmlB), WithShards(4))
	parsed, copied := c.ReloadSegments()
	if err != nil || stats.Rebuilt != 1 || parsed != 1 || copied != 1 {
		t.Fatalf("reload: %+v, %d entities parsed, %d copied, err %v; want 1 shard rebuilt, 1 entity parsed and 1 copied",
			stats, parsed, copied, err)
	}
	query()
	reclaimed := make(chan struct{}, 8)
	want, replaced := 0, 0
	for b, s := range c.data.Load().gen.Corpus.Shards() {
		if s.Doc == old[b].Doc {
			continue
		}
		replaced++
		runtime.AddCleanup(old[b].Doc, func(struct{}) { reclaimed <- struct{}{} }, struct{}{})
		for _, e := range old[b].Doc.Root.Children {
			runtime.AddCleanup(e, func(struct{}) { reclaimed <- struct{}{} }, struct{}{})
		}
		want += 1 + len(old[b].Doc.Root.Children)
	}
	if replaced != 1 {
		t.Fatalf("%d shard documents replaced, want 1", replaced)
	}
	old = nil

	deadline := time.After(10 * time.Second)
	for got := 0; got < want; {
		runtime.GC()
		select {
		case <-reclaimed:
			got++
		case <-time.After(20 * time.Millisecond):
		case <-deadline:
			t.Fatalf("%d of the replaced shard document and its entities (%d) were reclaimed", got, want)
		}
	}
}
