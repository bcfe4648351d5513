package extract

import (
	"bytes"
	"fmt"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"

	"extract/internal/gen"
	"extract/internal/index"
	"extract/internal/ingest"
	"extract/internal/persist"
	"extract/internal/shard"
	"extract/internal/workload"
	"extract/xmltree"
)

// deltaBaseDoc is the A side of every delta pair: four top-level
// retailers, so a 3-shard load has multi-entity shards and a one-entity
// edit stays confined to one shard.
func deltaBaseDoc() *xmltree.Document {
	return gen.Stores(gen.StoresConfig{Retailers: 4, StoresPerRetailer: 3, ClothesPerStore: 4, Seed: 51})
}

// deltaVariants builds the B sides: every edit class a refresh can see.
func deltaVariants() map[string]func() *xmltree.Document {
	mutated := func() *xmltree.Document {
		doc := deltaBaseDoc()
		entity := doc.Root.Children[2]
		done := false
		entity.Walk(func(n *xmltree.Node) bool {
			if done || !n.IsText() {
				return true
			}
			n.Value = "zzzfresh inventory"
			done = true
			return false
		})
		return doc
	}
	added := func() *xmltree.Document {
		doc := deltaBaseDoc()
		extra := gen.Stores(gen.StoresConfig{Retailers: 1, StoresPerRetailer: 2, ClothesPerStore: 3, Seed: 99})
		xmltree.Append(doc.Root, xmltree.DeepCopy(extra.Root.Children[0]))
		return xmltree.NewDocument(doc.Root)
	}
	removed := func() *xmltree.Document {
		doc := deltaBaseDoc()
		doc.Root.Children = doc.Root.Children[:3]
		return xmltree.NewDocument(doc.Root)
	}
	renamedRoot := func() *xmltree.Document {
		doc := deltaBaseDoc()
		doc.Root.Label = "renamed"
		return xmltree.NewDocument(doc.Root)
	}
	return map[string]func() *xmltree.Document{
		"identical":    deltaBaseDoc,
		"one-entity":   mutated,
		"entity-added": added,
		"entity-gone":  removed,
		"root-renamed": renamedRoot,
	}
}

func deltaQueries(mk func() *xmltree.Document) []string {
	qs := []string{"zzznope", "zzzfresh", "retailer store", "jeans"}
	for _, q := range workload.Generate(mk(), workload.Config{Queries: 6, Keywords: 2, Seed: 61}) {
		qs = append(qs, q.Text())
	}
	return qs
}

// compareCorpora asserts that two corpora answer every query mix, the
// stats and the suggestions byte-identically.
func compareCorpora(t *testing.T, label string, got, want *Corpus) {
	t.Helper()
	optCases := []struct {
		name string
		opts []SearchOption
	}{
		{"plain", nil},
		{"elca", []SearchOption{WithELCA()}},
		{"xseek", []SearchOption{WithTrimmedResults()}},
		{"max3", []SearchOption{WithMaxResults(3)}},
		{"ranked", []SearchOption{WithRanking()}},
	}
	gs, ws := got.Stats(), want.Stats()
	if gs.Nodes != ws.Nodes || gs.Elements != ws.Elements || gs.DistinctKeywords != ws.DistinctKeywords ||
		fmt.Sprint(gs.Entities) != fmt.Sprint(ws.Entities) {
		t.Fatalf("%s: stats differ: %+v vs %+v", label, gs, ws)
	}
	if g, w := got.Suggest("s", 10), want.Suggest("s", 10); fmt.Sprint(g) != fmt.Sprint(w) {
		t.Fatalf("%s: suggestions differ: %v vs %v", label, g, w)
	}
	for _, q := range append(deltaQueries(deltaBaseDoc), "store texas") {
		for _, oc := range optCases {
			wantHits, werr := want.Query(q, 10, oc.opts...)
			gotHits, gerr := got.Query(q, 10, oc.opts...)
			if (werr == nil) != (gerr == nil) {
				t.Fatalf("%s/%s/q=%q: errors differ: %v vs %v", label, oc.name, q, werr, gerr)
			}
			if werr != nil {
				continue
			}
			if g, w := renderFacadeHits(gotHits), renderFacadeHits(wantHits); g != w {
				t.Fatalf("%s/%s/q=%q: delta-reloaded response differs from fresh load\nwant %s\ngot  %s",
					label, oc.name, q, w, g)
			}
		}
	}
}

// TestReloadDeltaMatchesFreshLoad is the delta-reload equivalence
// property: for every edit class (including no edit and a root rename),
// shard count and query-option mix, a corpus refreshed through
// ReloadDelta answers byte-identically to a fresh full load of the same
// source with the same options — whether shards were adopted or not.
func TestReloadDeltaMatchesFreshLoad(t *testing.T) {
	xmlA := xmltree.XMLString(deltaBaseDoc().Root)
	for variant, mk := range deltaVariants() {
		xmlB := xmltree.XMLString(mk().Root)
		for _, shards := range []int{1, 3} {
			label := fmt.Sprintf("%s/shards=%d", variant, shards)
			opts := []Option{WithShards(shards)}
			c, err := LoadString(xmlA, opts...)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := c.Query("store", 8); err != nil { // cache against A
				t.Fatal(err)
			}
			stats, err := c.ReloadDelta(strings.NewReader(xmlB), opts...)
			if err != nil {
				t.Fatalf("%s: %v", label, err)
			}
			if variant == "identical" && shards > 1 && stats.Reused != stats.Shards {
				t.Fatalf("%s: identical reload adopted %d of %d shards", label, stats.Reused, stats.Shards)
			}
			if variant == "one-entity" && shards == 3 && (stats.Reused == 0 || stats.Rebuilt != 1) {
				t.Fatalf("%s: one-entity edit should rebuild exactly one shard, got %+v", label, stats)
			}
			if variant == "root-renamed" && stats.Reused != 0 {
				t.Fatalf("%s: root rename must rebuild everything, got %+v", label, stats)
			}
			fresh, err := LoadString(xmlB, opts...)
			if err != nil {
				t.Fatal(err)
			}
			compareCorpora(t, label, c, fresh)

			// A second delta on top of the first (back to A) keeps working:
			// the new generation's hashes were recorded by the reload.
			if _, err := c.ReloadDelta(strings.NewReader(xmlA), opts...); err != nil {
				t.Fatalf("%s: second delta: %v", label, err)
			}
			freshA, err := LoadString(xmlA, opts...)
			if err != nil {
				t.Fatal(err)
			}
			compareCorpora(t, label+"/back", c, freshA)
			c.Close()
			fresh.Close()
			freshA.Close()
		}
	}
}

// TestReloadDeltaChangedOptions: reloading with a different shard count is
// a full rebuild, and still byte-identical to a fresh load at the new
// count.
func TestReloadDeltaChangedOptions(t *testing.T) {
	xmlA := xmltree.XMLString(deltaBaseDoc().Root)
	c, err := LoadString(xmlA, WithShards(3))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	stats, err := c.ReloadDelta(strings.NewReader(xmlA), WithShards(2))
	if err != nil {
		t.Fatal(err)
	}
	if stats.Reused != 0 || c.Shards() != 2 {
		t.Fatalf("shape change: %+v, %d shards", stats, c.Shards())
	}
	fresh, err := LoadString(xmlA, WithShards(2))
	if err != nil {
		t.Fatal(err)
	}
	defer fresh.Close()
	compareCorpora(t, "reshard", c, fresh)
}

// TestReloadDeltaSkipsUnchangedShards is the counter-based proof that the
// delta path does what it claims: a one-entity edit on a 4-shard corpus
// runs exactly one index build (the changed shard) — the unchanged shards
// are adopted, not re-tokenized.
func TestReloadDeltaSkipsUnchangedShards(t *testing.T) {
	xmlA := xmltree.XMLString(deltaBaseDoc().Root)
	mut := deltaVariants()["one-entity"]
	xmlB := xmltree.XMLString(mut().Root)

	c, err := LoadString(xmlA, WithShards(4))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if c.Shards() != 4 {
		t.Fatalf("loaded %d shards, want 4", c.Shards())
	}

	before := index.Builds()
	stats, err := c.ReloadDelta(strings.NewReader(xmlB), WithShards(4))
	if err != nil {
		t.Fatal(err)
	}
	builds := index.Builds() - before
	if stats.Rebuilt != 1 || stats.Reused != 3 {
		t.Fatalf("delta stats = %+v, want 1 rebuilt / 3 reused", stats)
	}
	if builds != 1 {
		t.Fatalf("one-shard delta ran %d index builds, want exactly 1", builds)
	}

	// The full path, for contrast, builds every shard.
	before = index.Builds()
	if _, err := LoadString(xmlB, WithShards(4)); err != nil {
		t.Fatal(err)
	}
	if full := index.Builds() - before; full != 4 {
		t.Fatalf("full load ran %d index builds, want 4", full)
	}
}

// TestReloadSnapshotDelta pins the snapshot refresh path: reloading from a
// snapshot directory adopts unchanged shards, decodes only changed images,
// and leaves the corpus byte-identical to loading the snapshot from
// scratch.
func TestReloadSnapshotDelta(t *testing.T) {
	dirA := filepath.Join(t.TempDir(), "a.xtsnap")
	dirB := filepath.Join(t.TempDir(), "b.xtsnap")
	xmlA := xmltree.XMLString(deltaBaseDoc().Root)
	mut := deltaVariants()["one-entity"]
	xmlB := xmltree.XMLString(mut().Root)

	for _, shards := range []int{1, 3} {
		label := fmt.Sprintf("shards=%d", shards)
		srcA, err := LoadString(xmlA, WithShards(shards))
		if err != nil {
			t.Fatal(err)
		}
		srcB, err := LoadString(xmlB, WithShards(shards))
		if err != nil {
			t.Fatal(err)
		}
		if err := srcA.SaveSnapshot(dirA); err != nil {
			t.Fatal(err)
		}
		if err := srcB.SaveSnapshot(dirB); err != nil {
			t.Fatal(err)
		}

		c, err := LoadSnapshot(dirA)
		if err != nil {
			t.Fatal(err)
		}
		if c.Shards() != srcA.Shards() {
			t.Fatalf("%s: snapshot loaded %d shards, want %d", label, c.Shards(), srcA.Shards())
		}
		if _, err := c.Query("store", 8); err != nil {
			t.Fatal(err)
		}
		stats, err := c.ReloadSnapshot(dirB)
		if err != nil {
			t.Fatal(err)
		}
		if shards == 3 && (stats.Reused != 2 || stats.Rebuilt != 1) {
			t.Fatalf("%s: snapshot delta stats = %+v, want 2 reused / 1 rebuilt", label, stats)
		}
		fresh, err := LoadSnapshot(dirB)
		if err != nil {
			t.Fatal(err)
		}
		compareCorpora(t, "snapshot/"+label, c, fresh)

		// Reloading the same snapshot again is a pure-adoption no-op
		// (but still a generation swap).
		stats, err = c.ReloadSnapshot(dirB)
		if err != nil {
			t.Fatal(err)
		}
		if stats.Reused != stats.Shards || stats.Rebuilt != 0 {
			t.Fatalf("%s: identical snapshot reload = %+v, want all reused", label, stats)
		}
		c.Close()
		fresh.Close()
		srcA.Close()
		srcB.Close()
	}
}

// TestSnapshotFacadeRoundTrip: SaveSnapshot -> LoadSnapshot preserves
// shape and answers for both corpus shapes, and every loaded shard shares
// the corpus's one analysis.
func TestSnapshotFacadeRoundTrip(t *testing.T) {
	xmlA := xmltree.XMLString(deltaBaseDoc().Root)
	for _, shards := range []int{1, 3} {
		dir := filepath.Join(t.TempDir(), "c.xtsnap")
		src, err := LoadString(xmlA, WithShards(shards))
		if err != nil {
			t.Fatal(err)
		}
		if err := src.SaveSnapshot(dir); err != nil {
			t.Fatal(err)
		}
		c, err := LoadSnapshot(dir)
		if err != nil {
			t.Fatal(err)
		}
		if c.Shards() != src.Shards() {
			t.Fatalf("shape changed through snapshot: %d vs %d", c.Shards(), src.Shards())
		}
		sc := c.data.Load().gen.Corpus
		for i, s := range sc.Shards() {
			if s.Cls != sc.Classification() || s.Keys != sc.Keys() {
				t.Fatalf("shards=%d: loaded shard %d does not share the corpus's analysis", shards, i)
			}
		}
		compareCorpora(t, fmt.Sprintf("roundtrip/shards=%d", shards), c, src)
		c.Close()
		src.Close()
	}
}

// TestConcurrentQueriesDuringDeltaReload hammers a corpus with queries
// while delta reloads alternate the data underneath it. Every response
// must match one of the two generations — never an error, never a mix
// (runs under -race in CI).
func TestConcurrentQueriesDuringDeltaReload(t *testing.T) {
	xmlA := xmltree.XMLString(deltaBaseDoc().Root)
	mut := deltaVariants()["one-entity"]
	xmlB := xmltree.XMLString(mut().Root)
	queries := []string{"store texas", "retailer jeans", "store"}

	ref := make(map[string][2]string)
	freshA, err := LoadString(xmlA, WithShards(3))
	if err != nil {
		t.Fatal(err)
	}
	defer freshA.Close()
	freshB, err := LoadString(xmlB, WithShards(3))
	if err != nil {
		t.Fatal(err)
	}
	defer freshB.Close()
	for _, q := range queries {
		ha, err := freshA.Query(q, 8)
		if err != nil {
			t.Fatal(err)
		}
		hb, err := freshB.Query(q, 8)
		if err != nil {
			t.Fatal(err)
		}
		ref[q] = [2]string{renderFacadeHits(ha), renderFacadeHits(hb)}
	}

	c, err := LoadString(xmlA, WithShards(3))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				q := queries[(g+i)%len(queries)]
				hits, err := c.Query(q, 8)
				if err != nil {
					t.Errorf("q=%q: %v", q, err)
					return
				}
				got := renderFacadeHits(hits)
				if r := ref[q]; got != r[0] && got != r[1] {
					t.Errorf("q=%q: response matches neither generation\ngot %s", q, got)
					return
				}
			}
		}(g)
	}
	for i := 0; i < 6; i++ {
		xml := xmlB
		if i%2 == 1 {
			xml = xmlA
		}
		if _, err := c.ReloadDelta(strings.NewReader(xml), WithShards(3)); err != nil {
			t.Error(err)
			break
		}
	}
	close(stop)
	wg.Wait()
}

// corpusBytes is a corpus as its shards' packed images, concatenated: every
// shard's document, index and analysis artifacts, byte for byte.
func corpusBytes(t *testing.T, sc *shard.Corpus) []byte {
	t.Helper()
	var buf bytes.Buffer
	for _, s := range sc.Shards() {
		if err := persist.Save(&buf, s); err != nil {
			t.Fatal(err)
		}
	}
	return buf.Bytes()
}

// checkAdoption asserts that next took from prev exactly the shards adopt
// marks — same document, same packed index — and built or decoded the rest.
func checkAdoption(t *testing.T, label string, next, prev *ingest.Generation, adopt []bool, reused int) {
	t.Helper()
	want := 0
	for b, s := range next.Corpus.Shards() {
		adopted := false
		if b < prev.Corpus.NumShards() {
			was := prev.Corpus.Shards()[b]
			adopted = s.Doc == was.Doc && s.Index == was.Index
		}
		if adopted != adopt[b] {
			t.Fatalf("%s: block %d adopted = %v, want %v", label, b, adopted, adopt[b])
		}
		if adopted {
			want++
		}
	}
	if reused != want {
		t.Fatalf("%s: reported %d reused, adopted %d", label, reused, want)
	}
}

// TestOneBuilder pins the one document → generation builder (ingest.Build
// over shard.BuildFrom) on every edit class × shard shape above, plus the
// shapes a separate "nothing to adopt" body used to cover — a shard-count
// change, a root or DOCTYPE change, a one-block document: with no previous
// generation it is shard.Build, byte for byte; with one it adopts exactly
// the blocks ingest.Diff marks unchanged, records the hashes Diff computed,
// and still equals shard.Build of the same document, byte for byte.
func TestOneBuilder(t *testing.T) {
	single := func(value string) func() *xmltree.Document {
		return func() *xmltree.Document {
			doc := deltaBaseDoc()
			doc.Root.Children = doc.Root.Children[:1]
			doc.Root.Children[0].Children[0].Children[0].Value = value
			return xmltree.NewDocument(doc.Root)
		}
	}
	withSubset := func() *xmltree.Document {
		doc := deltaBaseDoc()
		doc.InternalSubset = "<!ELEMENT retailers (retailer*)>"
		return doc
	}
	type pair struct {
		name             string
		mkA, mkB         func() *xmltree.Document
		shardsA, shardsB int
		reused           int // what the shape must adopt; -1 = whatever Diff says
	}
	var pairs []pair
	for variant, mk := range deltaVariants() {
		for _, n := range []int{1, 3} {
			pairs = append(pairs, pair{fmt.Sprintf("%s/shards=%d", variant, n), deltaBaseDoc, mk, n, n, -1})
		}
	}
	pairs = append(pairs,
		pair{"reshard/3to2", deltaBaseDoc, deltaBaseDoc, 3, 2, 0},
		pair{"reshard/3to1", deltaBaseDoc, deltaBaseDoc, 3, 1, 0},
		pair{"reshard/1to3", deltaBaseDoc, deltaBaseDoc, 1, 3, 0},
		pair{"doctype-changed", deltaBaseDoc, withSubset, 3, 3, 0},
		pair{"one-block/identical", single("same"), single("same"), 3, 3, 1},
		pair{"one-block/edited", single("same"), single("zzzfresh"), 3, 3, 0},
	)
	for _, p := range pairs {
		prev, reused := ingest.Build(p.mkA(), p.shardsA, nil, nil)
		if reused != 0 {
			t.Fatalf("%s: a build from nothing reused %d shards", p.name, reused)
		}
		if !bytes.Equal(corpusBytes(t, prev.Corpus), corpusBytes(t, shard.Build(p.mkA(), p.shardsA))) {
			t.Fatalf("%s: ingest.Build with no previous generation differs from shard.Build", p.name)
		}
		if !reflect.DeepEqual(prev.Source, ingest.SourceOf(prev.Corpus)) {
			t.Fatalf("%s: recorded identity %+v, documents hash to %+v", p.name, prev.Source, ingest.SourceOf(prev.Corpus))
		}

		diff := ingest.Diff(prev.Source, p.mkB(), p.shardsB)
		docB := p.mkB()
		next, reused := ingest.Build(docB, p.shardsB, nil, prev)
		adopt := make([]bool, len(diff.Changed))
		for b, changed := range diff.Changed {
			adopt[b] = !changed
		}
		checkAdoption(t, p.name, next, prev, adopt, reused)
		if reused != diff.Reused || (p.reused >= 0 && reused != p.reused) {
			t.Fatalf("%s: adopted %d blocks, Diff marks %d unchanged, the shape allows %d", p.name, reused, diff.Reused, p.reused)
		}
		if want := (ingest.Source{RootHash: diff.RootHash, Shards: diff.Hashes}); !reflect.DeepEqual(next.Source, want) {
			t.Fatalf("%s: recorded identity %+v, Diff computed %+v", p.name, next.Source, want)
		}
		if !bytes.Equal(corpusBytes(t, next.Corpus), corpusBytes(t, shard.Build(p.mkB(), p.shardsB))) {
			t.Fatalf("%s: delta build (%d of %d adopted) differs from shard.Build of the same document",
				p.name, reused, next.Corpus.NumShards())
		}
		// The one-block rule: a lone block that is built is the document
		// itself, unmoved.
		if next.Corpus.NumShards() == 1 && reused == 0 && next.Corpus.Shards()[0].Doc != docB {
			t.Fatalf("%s: the one shard of a one-block document is not the document itself", p.name)
		}
	}

	// The facade over it: the first delta on a FromDocument corpus adopts
	// what Diff says it may, like any other.
	for _, n := range []int{1, 3} {
		label := fmt.Sprintf("from-document/shards=%d", n)
		c := FromDocumentSharded(deltaBaseDoc(), nil, n)
		mkB := deltaVariants()["one-entity"]
		diff := ingest.Diff(c.data.Load().gen.Source, mkB(), n)
		stats, err := c.ReloadDelta(strings.NewReader(xmltree.XMLString(mkB().Root)), WithShards(n))
		if err != nil {
			t.Fatal(err)
		}
		if want := (DeltaStats{Shards: len(diff.Changed), Reused: diff.Reused, Rebuilt: len(diff.Changed) - diff.Reused}); stats != want {
			t.Fatalf("%s: first delta did %+v, Diff allows %+v", label, stats, want)
		}
		fresh := FromDocumentSharded(mkB(), nil, n)
		compareCorpora(t, label, c, fresh)
		c.Close()
		fresh.Close()
	}
}

// TestLoadDeltaMatchesLoad is the snapshot side of the same property: for
// every edit class × shard shape, ingest.LoadDelta against a previous
// generation equals ingest.Load of the same directory byte for byte and in
// identity, and adopts exactly the shards whose content hash did not move
// (none when root or shard count differ).
func TestLoadDeltaMatchesLoad(t *testing.T) {
	for variant, mk := range deltaVariants() {
		for _, shape := range [][2]int{{1, 1}, {3, 3}, {3, 2}} {
			label := fmt.Sprintf("%s/shards=%dto%d", variant, shape[0], shape[1])
			dirA, dirB := filepath.Join(t.TempDir(), "a.xtsnap"), filepath.Join(t.TempDir(), "b.xtsnap")
			if err := ingest.Snapshot(dirA, shard.Build(deltaBaseDoc(), shape[0])); err != nil {
				t.Fatal(err)
			}
			if err := ingest.Snapshot(dirB, shard.Build(mk(), shape[1])); err != nil {
				t.Fatal(err)
			}
			prev, err := ingest.Load(dirA)
			if err != nil {
				t.Fatal(err)
			}
			fresh, err := ingest.Load(dirB)
			if err != nil {
				t.Fatal(err)
			}
			next, reused, err := ingest.LoadDelta(dirB, prev)
			if err != nil {
				t.Fatalf("%s: %v", label, err)
			}
			aligned := prev.Source.RootHash == fresh.Source.RootHash && len(prev.Source.Shards) == len(fresh.Source.Shards)
			adopt := make([]bool, len(fresh.Source.Shards))
			for b, h := range fresh.Source.Shards {
				adopt[b] = aligned && h == prev.Source.Shards[b]
			}
			checkAdoption(t, label, next, prev, adopt, reused)
			if !reflect.DeepEqual(next.Source, fresh.Source) {
				t.Fatalf("%s: LoadDelta identity %+v, Load identity %+v", label, next.Source, fresh.Source)
			}
			if !bytes.Equal(corpusBytes(t, next.Corpus), corpusBytes(t, fresh.Corpus)) {
				t.Fatalf("%s: LoadDelta (%d of %d adopted) differs from Load", label, reused, next.Corpus.NumShards())
			}
		}
	}
}
