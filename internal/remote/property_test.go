package remote

import (
	"context"
	"fmt"
	"math"
	"net"
	"slices"
	"strings"
	"testing"

	"extract/internal/core"
	"extract/internal/gen"
	"extract/internal/ingest"
	"extract/internal/rank"
	"extract/internal/search"
	"extract/internal/shard"
	"extract/internal/workload"
	"extract/xmltree"
)

// The distributed tier's central property: a router fanning out to shard
// servers over real loopback connections returns answers — result trees,
// snippets, and ranking scores — byte-identical to the same query on the
// local sharded corpus (which is itself pinned byte-identical to the
// unsharded engine by internal/shard's property tests).

// cluster is one in-process serving tier: shard servers on loopback
// listeners, grouped, and a router over them.
type cluster struct {
	router  *Router
	servers []*Server
	lns     []net.Listener
	addrs   [][]string
}

func (c *cluster) Close() {
	if c.router != nil {
		c.router.Close()
	}
	for _, s := range c.servers {
		s.Close()
	}
}

// startCluster serves sc from `groups` replica groups with `replicas`
// servers each, every server restricted to its group's placement subset,
// and returns a router over them.
func startCluster(t testing.TB, sc *shard.Corpus, groups, replicas int, opts ...RouterOption) *cluster {
	t.Helper()
	src := ingest.SourceOf(sc)
	c := &cluster{}
	for g := 0; g < groups; g++ {
		owned := OwnedShards(src, g, groups)
		var addrs []string
		for r := 0; r < replicas; r++ {
			ln, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				t.Fatalf("listen: %v", err)
			}
			srv := NewServer(sc, WithOwnedShards(owned), WithServerTag(ln.Addr().String()))
			go srv.Serve(ln)
			c.servers = append(c.servers, srv)
			c.lns = append(c.lns, ln)
			addrs = append(addrs, ln.Addr().String())
		}
		c.addrs = append(c.addrs, addrs)
	}
	rt, err := NewRouter(sc.Analysis(), src, c.addrs, opts...)
	if err != nil {
		c.Close()
		t.Fatalf("NewRouter: %v", err)
	}
	c.router = rt
	t.Cleanup(c.Close)
	return c
}

func testCorpora() []struct {
	name string
	mk   func() *xmltree.Document
} {
	return []struct {
		name string
		mk   func() *xmltree.Document
	}{
		{"figure1", gen.Figure1Corpus},
		{"stores", func() *xmltree.Document {
			return gen.Stores(gen.StoresConfig{Retailers: 4, StoresPerRetailer: 3, ClothesPerStore: 5, Seed: 11})
		}},
		{"movies", func() *xmltree.Document {
			return gen.Movies(gen.MoviesConfig{Movies: 10, Seed: 5})
		}},
	}
}

// unshardedOf is the unsharded reference corpus of doc: its one shard. A
// sharded corpus built from another copy of the same document answers as it
// does.
func unshardedOf(doc *xmltree.Document) *core.Corpus { return shard.Build(doc, 1).Shards()[0] }

// testQueries samples the query mix for doc: workload queries of two and
// three keywords, a keyword nowhere, the empty query, and a keyword from the
// middle of its vocabulary.
func testQueries(doc *xmltree.Document) []string {
	qs := []string{}
	for _, q := range workload.Generate(doc, workload.Config{Queries: 5, Keywords: 2, Seed: 13}) {
		qs = append(qs, q.Text())
	}
	for _, q := range workload.Generate(doc, workload.Config{Queries: 3, Keywords: 3, Seed: 29}) {
		qs = append(qs, q.Text())
	}
	qs = append(qs, "zzznosuchkeyword", "")
	if voc := unshardedOf(doc).Index.Vocabulary(); len(voc) > 0 {
		qs = append(qs, voc[len(voc)/2])
	}
	return qs
}

var testOptions = []search.Options{
	{DistinctAnchors: true},
	{DistinctAnchors: true, Semantics: search.SemanticsELCA},
	{DistinctAnchors: false},
	{DistinctAnchors: true, Mode: search.ModeXSeek},
	{DistinctAnchors: true, MaxResults: 3},
}

// TestRouterMatchesLocal is the byte-identity pin: results, snippets and
// ranking scores from the routed tier equal the local sharded corpus's for
// every corpus × shard count × option mix × query in the matrix.
func TestRouterMatchesLocal(t *testing.T) {
	for _, cc := range testCorpora() {
		cc := cc
		t.Run(cc.name, func(t *testing.T) {
			for _, n := range []int{1, 2, 3, 5} {
				sc := shard.Build(cc.mk(), n)
				cl := startCluster(t, sc, 2, 1)
				checkRouterEquivalence(t, fmt.Sprintf("%s/n=%d", cc.name, n), sc, cl.router, testOptions, testQueries(cc.mk()))
			}
		})
	}
}

// TestRouterMatchesLocalAtTheCut aims the byte-identity pin at the merge cut,
// which three parties now apply (the local merge, the router choosing what
// to build, each shard server choosing what to ship): three groups over at
// least five shards, placed so that ownership interleaves, with bounds small
// enough that the cut falls inside a group's first shard, between two shards
// of one group, and between groups, under both semantics and for a query
// that falls back to the whole-document round.
func TestRouterMatchesLocalAtTheCut(t *testing.T) {
	var options []search.Options
	for _, sem := range []search.Semantics{search.SemanticsSLCA, search.SemanticsELCA} {
		for _, maxResults := range []int{1, 2, 3, 25} {
			options = append(options, search.Options{DistinctAnchors: true, Semantics: sem, MaxResults: maxResults})
		}
	}
	for _, cc := range []struct {
		name string
		mk   func() *xmltree.Document
	}{
		{"movies", func() *xmltree.Document { return gen.Movies(gen.MoviesConfig{Movies: 10, Seed: 5}) }},
		{"stores", func() *xmltree.Document {
			return gen.Stores(gen.StoresConfig{Retailers: 6, StoresPerRetailer: 3, ClothesPerStore: 4, Seed: 3})
		}},
	} {
		sc := shard.Build(cc.mk(), 6)
		if sc.NumShards() < 5 {
			t.Fatalf("%s: only %d shards", cc.name, sc.NumShards())
		}
		cl := startCluster(t, sc, 3, 1)
		interleaved := false
		for _, owned := range cl.router.place.Load().byGroup {
			if n := len(owned); n > 1 && int(owned[n-1]-owned[0]) >= n {
				interleaved = true
			}
		}
		if !interleaved {
			t.Fatalf("%s: placement %v does not interleave ownership", cc.name, cl.router.place.Load().byGroup)
		}
		// The root's own label matches the root: the whole-document round.
		doc := cc.mk()
		checkRouterEquivalence(t, cc.name+"/cut", sc, cl.router, options, append(testQueries(doc), doc.Root.Label))
		m := cl.router.metrics
		if m.taken.Value() == 0 || m.dropped.Value() == 0 {
			t.Fatalf("%s: built %d, dropped %d results: the cut never fell inside the shipped results",
				cc.name, m.taken.Value(), m.dropped.Value())
		}
		if m.calls[[3]string{"full", "ok", "any"}].Value() == 0 {
			t.Fatalf("%s: no query fell back to the whole-document round", cc.name)
		}
	}
}

// TestRouterMatchesLocalReplicated re-runs one corpus with 2-way replica
// groups: replication must not change answers (every replica serves the
// same subset from the same snapshot).
func TestRouterMatchesLocalReplicated(t *testing.T) {
	sc := versionTestCorpus()
	cl := startCluster(t, sc, 2, 2)
	checkRouterEquivalence(t, "stores/replicated", sc, cl.router, testOptions, testQueries(versionTestDoc()))
}

// TestRouterFromSnapshot runs the same pin with the servers loading the
// corpus from an on-disk snapshot (mmap path) and the router built from
// the snapshot's manifest — the full production wiring.
func TestRouterFromSnapshot(t *testing.T) {
	mk := func() *xmltree.Document {
		return gen.Movies(gen.MoviesConfig{Movies: 10, Seed: 5})
	}
	local := shard.Build(mk(), 3)
	dir := t.TempDir()
	if err := ingest.Snapshot(dir, shard.Build(mk(), 3)); err != nil {
		t.Fatalf("Snapshot: %v", err)
	}
	loaded, err := ingest.Load(dir)
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	if loaded.Corpus == nil {
		t.Fatal("snapshot did not load as a sharded corpus")
	}

	groups := 2
	var addrs [][]string
	var servers []*Server
	for g := 0; g < groups; g++ {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatalf("listen: %v", err)
		}
		srv := NewServer(loaded.Corpus, WithOwnedShards(OwnedShards(loaded.Source, g, groups)))
		go srv.Serve(ln)
		servers = append(servers, srv)
		addrs = append(addrs, []string{ln.Addr().String()})
	}
	defer func() {
		for _, s := range servers {
			s.Close()
		}
	}()
	rt, err := OpenSnapshot(dir, addrs)
	if err != nil {
		t.Fatalf("OpenSnapshot: %v", err)
	}
	defer rt.Close()
	checkRouterEquivalence(t, "snapshot", local, rt, testOptions, testQueries(mk()))
}

// checkRouterEquivalence pins router answers to the local corpus's over
// the full query × options matrix: same errors, same result trees, same
// snippets (tree, inline text list, key), same ranking scores. The routed
// answer is the snippeted one, so its snippets are the shard servers': they
// must equal the local serving path's (shard.Corpus.Answer) in every field a
// served snippet keeps — tree XML and HTML, IList items with their exact
// score bits, return entities, key, covered and skipped — and the snippets
// regenerated from the routed trees must equal those made from the local
// ones. Scores are taken before any tree is built: they come from the depths
// the results arrived with.
func checkRouterEquivalence(t *testing.T, name string, sc *shard.Corpus, rt *Router, options []search.Options, queries []string) {
	t.Helper()
	ctx := context.Background()
	genLocal := core.NewGenerator(sc.Analysis())
	genRemote := core.NewGenerator(rt.Analysis())
	scorerLocal := rank.NewScorerFunc(sc.Count, sc.TotalElements())
	const bound = 10
	for _, opts := range options {
		for _, q := range queries {
			label := fmt.Sprintf("%s/sem=%d/mode=%d/max=%d/q=%q",
				name, opts.Semantics, opts.Mode, opts.MaxResults, q)
			want, werr := sc.Search(q, opts)
			got, gotSnippets, gerr := rt.Answer(ctx, q, opts, nil, bound)
			if (werr == nil) != (gerr == nil) {
				t.Fatalf("%s: errors differ: local %v, routed %v", label, werr, gerr)
			}
			if werr != nil {
				continue
			}
			if len(want) != len(got) {
				t.Fatalf("%s: %d results, want %d", label, len(got), len(want))
			}
			_, wantSnippets, err := sc.Answer(ctx, q, opts, nil, bound)
			if err != nil {
				t.Fatalf("%s: local answer: %v", label, err)
			}
			if len(gotSnippets) != len(wantSnippets) {
				t.Fatalf("%s: %d routed snippets, want %d", label, len(gotSnippets), len(wantSnippets))
			}
			for i := range wantSnippets {
				if err := sameSnippet(wantSnippets[i], gotSnippets[i]); err != nil {
					t.Fatalf("%s: server snippet %d: %v", label, i, err)
				}
			}
			keys := queryKeys(q)
			scorerRemote, err := rt.Scorer(ctx, keys)
			if err != nil {
				t.Fatalf("%s: remote scorer: %v", label, err)
			}
			wantScores := scorerLocal.Sort(want, keys)
			gotScores := scorerRemote.Sort(got, keys)
			for i := range got {
				if got[i], err = got[i].Tree(context.Background()); err != nil {
					t.Fatalf("%s: tree %d: %v", label, i, err)
				}
			}
			for i := range want {
				w := xmltree.XMLString(want[i].Root)
				g := xmltree.XMLString(got[i].Root)
				if w != g {
					t.Fatalf("%s: result %d differs\nwant %s\ngot  %s", label, i, w, g)
				}
				if wantScores[i] != gotScores[i] {
					t.Fatalf("%s: result %d score = %v, want %v", label, i, gotScores[i], wantScores[i])
				}
				sw := genLocal.ForResult(want[i], q, 10)
				sg := genRemote.ForResult(got[i], q, 10)
				if a, b := xmltree.XMLString(sw.Snippet.Root), xmltree.XMLString(sg.Snippet.Root); a != b {
					t.Fatalf("%s: snippet %d differs\nwant %s\ngot  %s", label, i, a, b)
				}
				if a, b := strings.Join(sw.IList.Texts(), "|"), strings.Join(sg.IList.Texts(), "|"); a != b {
					t.Fatalf("%s: ilist %d differs\nwant %s\ngot  %s", label, i, a, b)
				}
				if sw.IList.KeyValue != sg.IList.KeyValue {
					t.Fatalf("%s: key %d = %q, want %q", label, i, sg.IList.KeyValue, sw.IList.KeyValue)
				}
			}
		}
	}
}

func queryKeys(query string) []string {
	terms := search.ParseQuery(query)
	keys := make([]string, len(terms))
	for i, t := range terms {
		keys[i] = t.String()
	}
	return keys
}

// sameSnippet compares two served snippets in every field a served snippet
// keeps: tree (as XML, and as the HTML the demo embeds), edges, the IList
// item by item — kind, text, feature, feature id, exact score bits — its
// return entities and key, the covered and skipped item indexes, and the
// keywords and bound it records. It reads both through the accessor that
// decodes a snippet kept as its wire record (core.Generated.Derived), and
// holds got's eager fields — the XML, edges and key read without decoding —
// to its tree and IList.
func sameSnippet(want, got *core.Generated) error {
	eager := got
	want, got = want.Derived(), got.Derived()
	if x := xmltree.XMLString(got.Snippet.Root); eager.XML != x || eager.Edges != got.Snippet.Edges || eager.ResultKey != got.IList.KeyValue {
		return fmt.Errorf("eager XML/edges/key = %q/%d/%q, decoded %q/%d/%q",
			eager.XML, eager.Edges, eager.ResultKey, x, got.Snippet.Edges, got.IList.KeyValue)
	}
	if a, b := xmltree.XMLString(want.Snippet.Root), xmltree.XMLString(got.Snippet.Root); a != b {
		return fmt.Errorf("tree differs\nwant %s\ngot  %s", a, b)
	}
	if a, b := xmltree.RenderHTML(want.Snippet.Root, want.Keywords), xmltree.RenderHTML(got.Snippet.Root, got.Keywords); a != b {
		return fmt.Errorf("HTML differs\nwant %s\ngot  %s", a, b)
	}
	if want.Snippet.Edges != got.Snippet.Edges || want.Bound != got.Bound || !slices.Equal(want.Keywords, got.Keywords) {
		return fmt.Errorf("edges/bound/keywords = %d/%d/%v, want %d/%d/%v",
			got.Snippet.Edges, got.Bound, got.Keywords, want.Snippet.Edges, want.Bound, want.Keywords)
	}
	if !slices.Equal(want.Snippet.Covered, got.Snippet.Covered) || !slices.Equal(want.Snippet.Skipped, got.Snippet.Skipped) {
		return fmt.Errorf("covered/skipped = %v/%v, want %v/%v",
			got.Snippet.Covered, got.Snippet.Skipped, want.Snippet.Covered, want.Snippet.Skipped)
	}
	wl, gl := want.IList, got.IList
	if len(wl.Items) != len(gl.Items) {
		return fmt.Errorf("%d IList items, want %d", len(gl.Items), len(wl.Items))
	}
	for i, w := range wl.Items {
		g := gl.Items[i]
		if g.Kind != w.Kind || g.Text != w.Text || g.Feature != w.Feature || g.FeatureID != w.FeatureID ||
			math.Float64bits(g.Score) != math.Float64bits(w.Score) {
			return fmt.Errorf("IList item %d = %+v, want %+v", i, g, w)
		}
	}
	if !slices.Equal(wl.ReturnEntities, gl.ReturnEntities) || wl.KeyAttr != gl.KeyAttr || wl.KeyValue != gl.KeyValue {
		return fmt.Errorf("return entities/key = %v/%q=%q, want %v/%q=%q",
			gl.ReturnEntities, gl.KeyAttr, gl.KeyValue, wl.ReturnEntities, wl.KeyAttr, wl.KeyValue)
	}
	return nil
}
