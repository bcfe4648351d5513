package extract

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"extract/internal/gen"
	"extract/internal/ingest"
	"extract/internal/workload"
	"extract/xmltree"
)

// oneShapeOptionMixes is the search-option mix the one-shape suites replay.
var oneShapeOptionMixes = []struct {
	name string
	opts []SearchOption
}{
	{"slca", nil},
	{"elca", []SearchOption{WithELCA()}},
	{"trimmed", []SearchOption{WithTrimmedResults()}},
	{"ranked", []SearchOption{WithRanking()}},
	{"max3", []SearchOption{WithMaxResults(3)}},
	{"ranked-max3-elca", []SearchOption{WithRanking(), WithMaxResults(3), WithELCA()}},
}

// renderAnswers flattens everything a corpus answers about queries — Search
// and Query under every option mix, with exact score bits — to bytes.
func renderAnswers(t *testing.T, c *Corpus, queries []string) string {
	t.Helper()
	var b strings.Builder
	for _, mix := range oneShapeOptionMixes {
		for _, q := range queries {
			fmt.Fprintf(&b, "## %s %q\n", mix.name, q)
			rs, err := c.Search(q, mix.opts...)
			if err != nil {
				fmt.Fprintf(&b, "search error: %v\n", err)
			}
			for _, r := range rs {
				fmt.Fprintf(&b, "%s %016x\n", must(r.XML()), math.Float64bits(r.Score()))
			}
			hits, err := c.Query(q, 8, mix.opts...)
			if err != nil {
				fmt.Fprintf(&b, "query error: %v\n", err)
			}
			for _, h := range hits {
				fmt.Fprintf(&b, "%s %016x\n%s\n", must(h.Result.XML()), math.Float64bits(h.Result.Score()), h.Snippet.XML())
			}
		}
	}
	return b.String()
}

// renderFacts flattens the non-query surface: XPath, Suggest, Stats,
// EntityKey.
func renderFacts(t *testing.T, c *Corpus) string {
	t.Helper()
	var b strings.Builder
	rs, err := c.XPath("//store/city")
	if err != nil {
		t.Fatalf("XPath: %v", err)
	}
	for _, r := range rs {
		b.WriteString(must(r.XML()))
	}
	attr, ok := c.EntityKey("store")
	fmt.Fprintf(&b, "\nsuggest %v %v\nstats %+v\nkey %q %v\n", c.Suggest("s", 10), c.Suggest("je", 3), c.Stats(), attr, ok)
	return b.String()
}

// readSnapshotDir returns a snapshot directory's files by name.
func readSnapshotDir(t *testing.T, dir string) map[string]string {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	files := map[string]string{}
	for _, e := range entries {
		data, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		files[e.Name()] = string(data)
	}
	return files
}

func oneShapeQueries(doc *xmltree.Document) []string {
	qs := []string{"zzznope", "store texas", "retailer"}
	for _, q := range workload.Generate(doc, workload.Config{Queries: 6, Keywords: 2, Seed: 5}) {
		qs = append(qs, q.Text())
	}
	return qs
}

// TestOneShapeHoweverAskedFor: the default load, WithShards(1), FromDocument
// and — on a document with one top-level child, which cannot partition —
// WithShards(4) are the same one-shard corpus: byte-identical answers under
// every option mix (exact ranking scores included), the same XPath, Suggest,
// Stats and EntityKey, and byte-identical snapshot directories. The same
// content used to have two on-disk layouts depending on how it was asked for.
func TestOneShapeHoweverAskedFor(t *testing.T) {
	mk := func() *xmltree.Document {
		return gen.Stores(gen.StoresConfig{Retailers: 4, StoresPerRetailer: 3, ClothesPerStore: 4, Seed: 19})
	}
	many := xmltree.XMLString(mk().Root)
	cases := []struct {
		name, xml string
		variants  map[string][]Option
	}{
		{"many-children", many, map[string][]Option{"WithShards(1)": {WithShards(1)}}},
		{"one-child", "<db>" + many + "</db>", map[string][]Option{
			"WithShards(1)": {WithShards(1)},
			"WithShards(4)": {WithShards(4)},
		}},
	}
	for _, tc := range cases {
		ref, err := LoadString(tc.xml)
		if err != nil {
			t.Fatal(err)
		}
		defer ref.Close()
		doc, err := xmltree.ParseString(tc.xml)
		if err != nil {
			t.Fatal(err)
		}
		corpora := map[string]*Corpus{"FromDocument": FromDocument(doc, nil)}
		for name, opts := range tc.variants {
			if corpora[name], err = LoadString(tc.xml, opts...); err != nil {
				t.Fatal(err)
			}
		}
		queries := oneShapeQueries(mk())
		wantAnswers, wantFacts := renderAnswers(t, ref, queries), renderFacts(t, ref)
		if !strings.Contains(wantAnswers, "<store>") {
			t.Fatalf("%s: the query mix found nothing to compare", tc.name)
		}
		refDir := filepath.Join(t.TempDir(), "ref.xtsnap")
		if err := ref.SaveSnapshot(refDir); err != nil {
			t.Fatal(err)
		}
		wantFiles := readSnapshotDir(t, refDir)
		if len(wantFiles) != 3 {
			t.Fatalf("%s: default snapshot has %d files, want manifest + analysis + one shard image", tc.name, len(wantFiles))
		}
		for name, c := range corpora {
			defer c.Close()
			label := tc.name + "/" + name
			if c.Shards() != 1 || c.InternalShards() == nil {
				t.Fatalf("%s: Shards() = %d, InternalShards() = %v", label, c.Shards(), c.InternalShards())
			}
			if got := renderAnswers(t, c, queries); got != wantAnswers {
				t.Fatalf("%s: answers differ from the default load\nwant %s\ngot  %s", label, wantAnswers, got)
			}
			if got := renderFacts(t, c); got != wantFacts {
				t.Fatalf("%s: XPath/Suggest/Stats/EntityKey differ\nwant %s\ngot  %s", label, wantFacts, got)
			}
			dir := filepath.Join(t.TempDir(), "v.xtsnap")
			if err := c.SaveSnapshot(dir); err != nil {
				t.Fatal(err)
			}
			got := readSnapshotDir(t, dir)
			if len(got) != len(wantFiles) {
				t.Fatalf("%s: snapshot has %d files, want %d", label, len(got), len(wantFiles))
			}
			for file, want := range wantFiles {
				if got[file] != want {
					t.Fatalf("%s: snapshot file %s differs from the default load's", label, file)
				}
			}
		}
	}
}

// TestDefaultSnapshotServesRemotely: a snapshot saved with no WithShards —
// one shard — is a snapshot like any other, so the distributed tier serves
// it, byte-identical to the local corpus across the option mix. (It used to
// be refused: "router requires a sharded snapshot".)
func TestDefaultSnapshotServesRemotely(t *testing.T) {
	doc := gen.Stores(gen.StoresConfig{Retailers: 4, StoresPerRetailer: 3, ClothesPerStore: 5, Seed: 11})
	local, err := LoadString(xmltree.XMLString(doc.Root), WithQueryCache(0))
	if err != nil {
		t.Fatal(err)
	}
	defer local.Close()
	dir := t.TempDir()
	if err := local.SaveSnapshot(dir); err != nil {
		t.Fatal(err)
	}
	addrs, _ := startShardTier(t, dir, 2, 1)
	rc, err := Connect(dir, addrs, WithQueryCache(0))
	if err != nil {
		t.Fatalf("Connect to a default-saved snapshot: %v", err)
	}
	defer rc.Close()
	if rc.Shards() != 1 {
		t.Fatalf("remote Shards() = %d, want 1", rc.Shards())
	}
	queries := append(oneShapeQueries(doc), "")
	if got, want := renderAnswers(t, rc, queries), renderAnswers(t, local, queries); got != want {
		t.Fatalf("routed answers differ from local\nlocal  %s\nrouted %s", want, got)
	}
}

// TestUnshardedManifestRefused: the retired flags-0 ("unsharded") manifest
// layout decodes to ErrBadManifest, and every way into the facade reports
// it cleanly — a reload leaves the old generation serving.
func TestUnshardedManifestRefused(t *testing.T) {
	doc := gen.Stores(gen.StoresConfig{Retailers: 3, StoresPerRetailer: 2, ClothesPerStore: 3, Seed: 23})
	c, err := LoadString(xmltree.XMLString(doc.Root))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	good, bad := t.TempDir(), t.TempDir()
	for _, dir := range []string{good, bad} {
		if err := c.SaveSnapshot(dir); err != nil {
			t.Fatal(err)
		}
	}
	// Hand-build the old layout's manifest: clear flags bit 0 and reseal
	// the trailing CRC-32C, so the flag — not the checksum — is what the
	// decoder sees.
	path := filepath.Join(bad, ingest.ManifestName)
	m, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	m[5] = 0
	body := m[:len(m)-4]
	m = binary.LittleEndian.AppendUint32(body, crc32.Checksum(body, crc32.MakeTable(crc32.Castagnoli)))
	if err := os.WriteFile(path, m, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := ingest.DecodeManifest(m); !errors.Is(err, ingest.ErrBadManifest) || !strings.Contains(err.Error(), "re-save") {
		t.Fatalf("flags-0 manifest decoded with %v, want ErrBadManifest naming the fix", err)
	}

	if _, err := LoadSnapshot(bad); !errors.Is(err, ingest.ErrBadManifest) {
		t.Fatalf("LoadSnapshot: %v, want ErrBadManifest", err)
	}
	if _, err := Connect(bad, [][]string{{"127.0.0.1:1"}}); !errors.Is(err, ingest.ErrBadManifest) {
		t.Fatalf("Connect: %v, want ErrBadManifest", err)
	}

	addrs, _ := startShardTier(t, good, 1, 1)
	rc, err := Connect(good, addrs)
	if err != nil {
		t.Fatal(err)
	}
	defer rc.Close()
	queries := []string{"store texas"}
	for name, served := range map[string]*Corpus{"local": c, "remote": rc} {
		want := renderAnswers(t, served, queries)
		if _, err := served.ReloadSnapshot(bad); !errors.Is(err, ingest.ErrBadManifest) {
			t.Fatalf("%s ReloadSnapshot: %v, want ErrBadManifest", name, err)
		}
		if got := renderAnswers(t, served, queries); got != want || !strings.Contains(got, "<store>") {
			t.Fatalf("%s: the old generation stopped serving after a refused reload", name)
		}
	}
}

// TestPerGenerationStatsAreComputedOnce pins the two places a default
// corpus used to walk the whole document per call: Stats (extractd renders
// it on every search page) and the ranking scorer of a cached ranked query.
// Once a generation is warm, neither's cost depends on corpus size: the
// allocations per call are equal at 1k and 100k nodes, and so — within a
// wide margin; the walk was two orders of magnitude — is the fastest call.
func TestPerGenerationStatsAreComputedOnce(t *testing.T) {
	if testing.Short() {
		t.Skip("builds 100k-node corpora")
	}
	type cost struct {
		statsAllocs, rankedAllocs float64
		stats, ranked             time.Duration
	}
	fastest := func(f func()) time.Duration {
		best := time.Duration(math.MaxInt64)
		for i := 0; i < 50; i++ {
			start := time.Now()
			f()
			best = min(best, time.Since(start))
		}
		return best
	}
	measure := func(clothesPerStore int, build func(*xmltree.Document) *Corpus) cost {
		doc := gen.Stores(gen.StoresConfig{Retailers: 4, StoresPerRetailer: 5, ClothesPerStore: clothesPerStore, Seed: 3})
		nodes := doc.Len()
		c := build(doc)
		defer c.Close()
		stats := func() {
			if got := c.Stats().Nodes; got != nodes {
				t.Fatalf("Stats().Nodes = %d, want %d", got, nodes)
			}
		}
		ranked := func() {
			hits, err := c.Query("store texas", 6, WithRanking(), WithMaxResults(5))
			if err != nil || len(hits) != 5 {
				t.Fatalf("ranked query: %d hits, %v", len(hits), err)
			}
		}
		stats()  // the generation's one walk
		ranked() // the miss; every run below is a cache hit
		return cost{
			statsAllocs:  testing.AllocsPerRun(10, stats),
			rankedAllocs: testing.AllocsPerRun(10, ranked),
			stats:        fastest(stats),
			ranked:       fastest(ranked),
		}
	}
	for name, build := range map[string]func(*xmltree.Document) *Corpus{
		"default":  func(doc *xmltree.Document) *Corpus { return FromDocument(doc, nil) },
		"4 shards": func(doc *xmltree.Document) *Corpus { return FromDocumentSharded(doc, nil, 4) },
	} {
		small, large := measure(7, build), measure(720, build) // ~1k and ~100k nodes
		if small.statsAllocs != large.statsAllocs || small.rankedAllocs != large.rankedAllocs {
			t.Errorf("%s: allocations per call grow with the corpus: %+v at 1k nodes, %+v at 100k", name, small, large)
		}
		const margin = 8
		if large.stats > margin*small.stats || large.ranked > margin*small.ranked {
			t.Errorf("%s: a warm call's cost grows with the corpus: %+v at 1k nodes, %+v at 100k", name, small, large)
		}
	}
}
