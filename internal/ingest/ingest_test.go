package ingest

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"extract/internal/core"
	"extract/internal/gen"
	"extract/internal/search"
	"extract/internal/shard"
	"extract/xmltree"
)

func storesDoc() *xmltree.Document {
	return gen.Stores(gen.StoresConfig{Retailers: 4, StoresPerRetailer: 3, ClothesPerStore: 4, Seed: 23})
}

// mutateOneEntity flips one text value inside the subtree of the root's
// child at index i — the smallest possible source change, confined to one
// partition block.
func mutateOneEntity(doc *xmltree.Document, i int) {
	entity := doc.Root.Children[i]
	var done bool
	entity.Walk(func(n *xmltree.Node) bool {
		if done || !n.IsText() {
			return true
		}
		n.Value = "zzzmutated"
		done = true
		return false
	})
	if !done {
		panic("no text node to mutate")
	}
}

// render flattens search results and snippets over a sharded corpus to
// comparable bytes.
func render(sc *shard.Corpus, query string) string {
	rs, err := sc.Search(query, search.Options{DistinctAnchors: true})
	if err != nil {
		return "err:" + err.Error()
	}
	g := core.NewGenerator(sc.Analysis())
	var b bytes.Buffer
	for _, r := range rs {
		b.WriteString(xmltree.XMLString(r.Root))
		b.WriteString("\n")
		b.WriteString(xmltree.XMLString(g.ForResult(r, query, 8).Snippet.Root))
		b.WriteString("\n")
	}
	return b.String()
}

var testQueries = []string{"retailer", "store texas", "jeans", "zzznope store"}

// TestHashAgreement pins the invariant the delta path rests on: the block
// hashes Diff computes for a document equal the ShardHash of the shards
// Partition-and-Build produce from the same content.
func TestHashAgreement(t *testing.T) {
	for _, n := range []int{1, 2, 3, 4} {
		d := Diff(Source{}, storesDoc(), n)
		sc := shard.Build(storesDoc(), n)
		if len(d.Hashes) != sc.NumShards() {
			t.Fatalf("n=%d: Diff saw %d blocks, Build made %d shards", n, len(d.Hashes), sc.NumShards())
		}
		for i, s := range sc.Shards() {
			if got := ShardHash(s.Doc); got != d.Hashes[i] {
				t.Fatalf("n=%d shard %d: built-shard hash %x != block hash %x", n, i, got, d.Hashes[i])
			}
		}
		label, fromAttr := sc.Root()
		if got := RootHash(label, fromAttr, sc.InternalSubset()); got != d.RootHash {
			t.Fatalf("n=%d: root hash disagrees: %x vs %x", n, got, d.RootHash)
		}
	}
}

// TestDiff covers the adoption verdicts: identical content adopts
// everything, a one-entity edit rebuilds exactly its block, and a root or
// layout change degrades to a full rebuild.
func TestDiff(t *testing.T) {
	base := Diff(Source{}, storesDoc(), 4)
	if base.Reused != 0 {
		t.Fatalf("diff against empty source reused %d blocks", base.Reused)
	}
	old := Source{RootHash: base.RootHash, Shards: base.Hashes}

	same := Diff(old, storesDoc(), 4)
	if same.Reused != 4 {
		t.Fatalf("identical content: reused %d of 4 blocks (%v)", same.Reused, same.Changed)
	}

	mut := storesDoc()
	mutateOneEntity(mut, 2)
	d := Diff(old, mut, 4)
	if d.Reused != 3 || !d.Changed[2] {
		t.Fatalf("one-entity edit: reused %d, changed %v", d.Reused, d.Changed)
	}

	rooted := storesDoc()
	rooted.Root.Label = "renamed"
	if d := Diff(old, rooted, 4); d.Reused != 0 {
		t.Fatalf("root change: reused %d blocks", d.Reused)
	}

	if d := Diff(old, storesDoc(), 2); d.Reused != 0 {
		t.Fatalf("layout change: reused %d blocks", d.Reused)
	}
}

// TestSnapshotRoundTripSharded pins snapshot persistence: a loaded
// sharded snapshot answers queries byte-identically to the corpus it was
// written from, and its Source matches the live generation's hashes.
func TestSnapshotRoundTripSharded(t *testing.T) {
	dir := t.TempDir()
	sc := shard.Build(storesDoc(), 3)
	if err := Snapshot(dir, sc); err != nil {
		t.Fatal(err)
	}
	loaded, err := Load(dir)
	if err != nil {
		t.Fatal(err)
	}
	if loaded.Corpus.NumShards() != sc.NumShards() {
		t.Fatalf("shards: %d, want %d", loaded.Corpus.NumShards(), sc.NumShards())
	}
	for i, s := range sc.Shards() {
		if loaded.Source.Shards[i] != ShardHash(s.Doc) {
			t.Fatalf("manifest source hash %d disagrees with live shard", i)
		}
	}
	for _, q := range testQueries {
		if got, want := render(loaded.Corpus, q), render(sc, q); got != want {
			t.Fatalf("q=%q: snapshot answers differ\nwant %s\ngot  %s", q, want, got)
		}
	}
	if a, ok := loaded.Corpus.Keys().KeyAttr("retailer"); !ok || a != "name" {
		t.Fatalf("mined keys lost in snapshot: %q %v", a, ok)
	}
}

// TestSnapshotRoundTripSingle covers the one-shard corpus: the same layout
// as any other shard count, one image plus the analysis file.
func TestSnapshotRoundTripSingle(t *testing.T) {
	dir := t.TempDir()
	sc := shard.Build(storesDoc(), 1)
	c := sc.Shards()[0]
	if err := Snapshot(dir, sc); err != nil {
		t.Fatal(err)
	}
	loaded, err := Load(dir)
	if err != nil {
		t.Fatal(err)
	}
	if loaded.Corpus.NumShards() != 1 {
		t.Fatalf("one-shard snapshot loaded with %d shards", loaded.Corpus.NumShards())
	}
	if got := loaded.Corpus.Shards()[0].Doc.Len(); got != c.Doc.Len() {
		t.Fatalf("nodes: %d, want %d", got, c.Doc.Len())
	}
	if len(loaded.Source.Shards) != 1 || loaded.Source.Shards[0] != ShardHash(c.Doc) {
		t.Fatalf("manifest source %v disagrees with live corpus", loaded.Source)
	}
	for _, q := range testQueries {
		if got, want := render(loaded.Corpus, q), render(sc, q); got != want {
			t.Fatalf("q=%q: snapshot answers differ\nwant %s\ngot  %s", q, want, got)
		}
	}
}

// TestSnapshotIncrementalWrite proves unchanged shard images are not
// rewritten: the file of a shard whose content hash still matches is the
// same file, unmodified, after a re-snapshot, while a genuinely changed
// shard's image is replaced.
func TestSnapshotIncrementalWrite(t *testing.T) {
	dir := t.TempDir()
	if err := Snapshot(dir, shard.Build(storesDoc(), 4)); err != nil {
		t.Fatal(err)
	}

	// One shard file whose content will not change (must be left alone)
	// and one whose content will (must be rewritten).
	keepFile := filepath.Join(dir, shardFile(0))
	changeFile := filepath.Join(dir, shardFile(2))
	keepBefore, err := os.Stat(keepFile)
	if err != nil {
		t.Fatal(err)
	}
	changeBefore, err := os.Stat(changeFile)
	if err != nil {
		t.Fatal(err)
	}

	mut := storesDoc()
	mutateOneEntity(mut, 2)
	if err := Snapshot(dir, shard.Build(mut, 4)); err != nil {
		t.Fatal(err)
	}

	keepAfter, err := os.Stat(keepFile)
	if err != nil {
		t.Fatal(err)
	}
	if !os.SameFile(keepBefore, keepAfter) || !keepAfter.ModTime().Equal(keepBefore.ModTime()) {
		t.Error("unchanged shard image was rewritten")
	}
	changeAfter, err := os.Stat(changeFile)
	if err != nil {
		t.Fatal(err)
	}
	if os.SameFile(changeBefore, changeAfter) {
		t.Error("changed shard image was not rewritten")
	}
}

// TestResnapshotRepairsInterruptedWrite: a writer that died between its image
// renames and its manifest rename leaves the previous generation's manifest
// over the new generation's images, a directory that refuses to load. Saving
// the previous generation into it again must repair it: an image on disk is
// kept only when its bytes are the ones the new manifest records, for the
// analysis image as for a shard's.
func TestResnapshotRepairsInterruptedWrite(t *testing.T) {
	dir := t.TempDir()
	if err := Snapshot(dir, shard.Build(storesDoc(), 4)); err != nil {
		t.Fatal(err)
	}
	manifestA, err := os.ReadFile(filepath.Join(dir, ManifestName))
	if err != nil {
		t.Fatal(err)
	}

	// Generation B edits one entity, with a label that is new to the corpus,
	// so its analysis image differs from A's as well as one shard image.
	mut := storesDoc()
	mutateOneEntity(mut, 2)
	xmltree.Append(mut.Root.Children[2], xmltree.Attr("zzzlabel", "zzzvalue"))
	mut = xmltree.NewDocument(mut.Root)
	if err := Snapshot(dir, shard.Build(mut, 4)); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, ManifestName), manifestA, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Load(dir); !errors.Is(err, ErrImageMismatch) {
		t.Fatalf("premise: A's manifest over B's images loads with %v, want ErrImageMismatch", err)
	}

	sc := shard.Build(storesDoc(), 4)
	if err := Snapshot(dir, sc); err != nil {
		t.Fatal(err)
	}
	loaded, err := Load(dir)
	if err != nil {
		t.Fatalf("re-saving the previous generation did not repair the directory: %v", err)
	}
	for _, q := range testQueries {
		if got, want := render(loaded.Corpus, q), render(sc, q); got != want {
			t.Fatalf("q=%q: repaired snapshot answers differ\nwant %s\ngot  %s", q, want, got)
		}
	}
}

// TestSnapshotShapeChangeCleans: re-snapshotting with fewer shards removes
// the orphaned image files and the directory stays loadable.
func TestSnapshotShapeChangeCleans(t *testing.T) {
	dir := t.TempDir()
	if err := Snapshot(dir, shard.Build(storesDoc(), 4)); err != nil {
		t.Fatal(err)
	}
	sc2 := shard.Build(storesDoc(), 2)
	if err := Snapshot(dir, sc2); err != nil {
		t.Fatal(err)
	}
	for i := 2; i < 4; i++ {
		if _, err := os.Stat(filepath.Join(dir, shardFile(i))); !os.IsNotExist(err) {
			t.Errorf("stale image %s survived the shape change", shardFile(i))
		}
	}
	loaded, err := Load(dir)
	if err != nil {
		t.Fatal(err)
	}
	if loaded.Corpus.NumShards() != sc2.NumShards() {
		t.Fatalf("shards after shape change: %d, want %d", loaded.Corpus.NumShards(), sc2.NumShards())
	}
	for _, q := range testQueries {
		if got, want := render(loaded.Corpus, q), render(sc2, q); got != want {
			t.Fatalf("q=%q: answers differ after shape change", q)
		}
	}
}

// TestBuildSplitCopiesSegmentsItRead: a delta from bytes parses exactly the
// segments whose bytes are new, copies the other entities of the blocks it
// rebuilds out of the previous generation, and equals a fresh build; under
// another root fingerprint (a DOCTYPE added) it copies nothing.
func TestBuildSplitCopiesSegmentsItRead(t *testing.T) {
	split := func(doc *xmltree.Document, prolog string) *xmltree.Split {
		sp := xmltree.SplitBytes([]byte(prolog + xmltree.XMLString(doc.Root)))
		if sp == nil {
			t.Fatal("the document does not split")
		}
		return sp
	}
	base, err := func() (*Generation, error) {
		g, _, err := BuildSplit(split(storesDoc(), ""), 2, nil, nil)
		return g, err
	}()
	if err != nil {
		t.Fatal(err)
	}
	edited := storesDoc()
	mutateOneEntity(edited, 3)
	for _, tc := range []struct {
		name   string
		prolog string
		want   Stats
	}{
		{"one entity edited", "", Stats{Reused: 1, Parsed: 1, Copied: 1}},
		{"a DOCTYPE added", "<!DOCTYPE retailers [<!ELEMENT retailers (retailer*)>]>", Stats{Parsed: 4}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			g, st, err := BuildSplit(split(edited, tc.prolog), 2, nil, base)
			if err != nil {
				t.Fatal(err)
			}
			if st != tc.want {
				t.Fatalf("stats %+v, want %+v", st, tc.want)
			}
			fresh, _, err := BuildSplit(split(edited, tc.prolog), 2, nil, nil)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(g.Source, fresh.Source) {
				t.Fatalf("delta identity %+v, fresh build's %+v", g.Source, fresh.Source)
			}
			for _, q := range testQueries {
				if got, want := render(g.Corpus, q), render(fresh.Corpus, q); got != want {
					t.Fatalf("query %q: the delta answers differently from a fresh build", q)
				}
			}
		})
	}
}
