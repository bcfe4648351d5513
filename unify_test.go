package extract

import (
	"fmt"
	"strings"
	"sync"
	"testing"

	"extract/internal/core"
	"extract/internal/gen"
	"extract/internal/rank"
	"extract/internal/search"
	"extract/internal/workload"
	"extract/xmltree"
)

// renderFacadeHits flattens a facade response to comparable bytes.
func renderFacadeHits(hits []*Hit) string {
	var b strings.Builder
	for _, h := range hits {
		b.WriteString(must(h.Result.XML()))
		b.WriteString("\n")
		b.WriteString(h.Snippet.XML())
		b.WriteString("\n")
	}
	return b.String()
}

// directQuery replicates the pre-unification unsharded Query path exactly:
// evaluate on the corpus's engine, rank if asked, then generate one snippet
// per result with a private generator — no serving layer, no cache.
func directQuery(c *Corpus, query string, bound int, ranked bool, opts search.Options) (string, error) {
	cc := c.InternalShards().Shards()[0]
	rs, err := cc.Engine(opts).Search(search.Parse(query))
	if err != nil {
		return "", err
	}
	if ranked {
		rank.NewScorerFunc(cc.Index.Count, cc.Doc.ComputeStats().Elements).Sort(rs, search.Parse(query).Keys)
	}
	g := core.NewGenerator(cc)
	var b strings.Builder
	for _, r := range rs {
		b.WriteString(xmltree.XMLString(r.Root))
		b.WriteString("\n")
		b.WriteString(xmltree.XMLString(g.ForResult(r, query, bound).Snippet.Root))
		b.WriteString("\n")
	}
	return b.String(), nil
}

// unifyQueries samples a query mix for one generated corpus, including
// no-match and partial-match queries.
func unifyQueries(mk func() *xmltree.Document) []string {
	qs := []string{"zzznope", "zzznope store"}
	for _, q := range workload.Generate(mk(), workload.Config{Queries: 8, Keywords: 2, Seed: 29}) {
		qs = append(qs, q.Text())
	}
	return qs
}

// TestUnshardedServedMatchesDirect is the unification property at the
// facade: an unsharded corpus's Query — now always through the serving
// layer's pool and cache — answers byte-identical to the pre-unification
// direct path (engine evaluation plus per-result snippet generation), on
// the first computation and on every cache hit, for every option mix
// including ranking.
func TestUnshardedServedMatchesDirect(t *testing.T) {
	corpora := map[string]func() *xmltree.Document{
		"figure1": gen.Figure1Corpus,
		"stores": func() *xmltree.Document {
			return gen.Stores(gen.StoresConfig{Retailers: 5, StoresPerRetailer: 3, ClothesPerStore: 4, Seed: 31})
		},
		"movies": func() *xmltree.Document {
			return gen.Movies(gen.MoviesConfig{Movies: 8, Seed: 13})
		},
	}
	optCases := []struct {
		name   string
		facade []SearchOption
		opts   search.Options
		ranked bool
	}{
		{"plain", nil, search.Options{DistinctAnchors: true}, false},
		{"elca", []SearchOption{WithELCA()}, search.Options{DistinctAnchors: true, Semantics: search.SemanticsELCA}, false},
		{"xseek", []SearchOption{WithTrimmedResults()}, search.Options{DistinctAnchors: true, Mode: search.ModeXSeek}, false},
		{"max3", []SearchOption{WithMaxResults(3)}, search.Options{DistinctAnchors: true, MaxResults: 3}, false},
		{"ranked", []SearchOption{WithRanking()}, search.Options{DistinctAnchors: true}, true},
	}
	for name, mk := range corpora {
		c := FromDocument(mk(), nil)
		defer c.Close()
		for _, oc := range optCases {
			for _, q := range unifyQueries(mk) {
				label := fmt.Sprintf("%s/%s/q=%q", name, oc.name, q)
				want, werr := directQuery(c, q, 10, oc.ranked, oc.opts)
				for pass := 0; pass < 3; pass++ {
					hits, gerr := c.Query(q, 10, oc.facade...)
					if (werr == nil) != (gerr == nil) {
						t.Fatalf("%s pass %d: errors differ: %v vs %v", label, pass, werr, gerr)
					}
					if werr != nil {
						continue
					}
					if got := renderFacadeHits(hits); got != want {
						t.Fatalf("%s pass %d: served response differs from direct path\nwant %s\ngot  %s",
							label, pass, want, got)
					}
				}
				// Search must return the same result list the direct engine does.
				wantRS, werr2 := c.InternalShards().Shards()[0].Engine(oc.opts).Search(search.Parse(q))
				gotRS, gerr2 := c.Search(q, oc.facade...)
				if (werr2 == nil) != (gerr2 == nil) {
					t.Fatalf("%s: Search errors differ: %v vs %v", label, werr2, gerr2)
				}
				if werr2 == nil {
					if len(gotRS) != len(wantRS) {
						t.Fatalf("%s: Search returned %d results, want %d", label, len(gotRS), len(wantRS))
					}
					if !oc.ranked {
						for i := range wantRS {
							if xmltree.XMLString(must(gotRS[i].Root())) != xmltree.XMLString(wantRS[i].Root) {
								t.Fatalf("%s: Search result %d differs", label, i)
							}
						}
					}
				}
			}
		}
		st, ok := c.QueryCacheStats()
		if !ok || st.Hits == 0 {
			t.Fatalf("%s: unsharded corpus never hit the query cache: ok=%v %+v", name, ok, st)
		}
	}
}

// TestReloadSwapsCorpus pins the facade reload path: after Reload the
// corpus answers — results, snippets, stats, suggestions — exactly as a
// fresh load of the new data would, entries cached against the old data
// are gone, and the shard count may change with the data.
func TestReloadSwapsCorpus(t *testing.T) {
	xmlA := xmltree.XMLString(gen.Figure5Corpus().Root)
	xmlB := xmltree.XMLString(gen.Stores(gen.StoresConfig{Retailers: 6, StoresPerRetailer: 2, ClothesPerStore: 4, Seed: 77}).Root)

	c, err := LoadString(xmlA) // unsharded
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := c.Query("austin store", 10); err != nil { // cache against A
		t.Fatal(err)
	}

	// Reload with different data and a different shape: 1 shard -> 3.
	src, err := LoadString(xmlB, WithShards(3))
	if err != nil {
		t.Fatal(err)
	}
	c.Reload(src)
	if got := c.Shards(); got != 3 {
		t.Fatalf("shards after reload = %d, want 3", got)
	}

	fresh, err := LoadString(xmlB, WithShards(3))
	if err != nil {
		t.Fatal(err)
	}
	defer fresh.Close()
	if got, want := c.Stats(), fresh.Stats(); got.Nodes != want.Nodes {
		t.Fatalf("stats after reload: %d nodes, want %d", got.Nodes, want.Nodes)
	}
	for _, q := range []string{"austin store", "store jeans", "retailer"} {
		wantHits, werr := fresh.Query(q, 10)
		for pass := 0; pass < 2; pass++ {
			hits, gerr := c.Query(q, 10)
			if (werr == nil) != (gerr == nil) {
				t.Fatalf("q=%q: errors differ: %v vs %v", q, werr, gerr)
			}
			if werr != nil {
				continue
			}
			if got, want := renderFacadeHits(hits), renderFacadeHits(wantHits); got != want {
				t.Fatalf("q=%q pass %d after reload: response differs from fresh load\nwant %s\ngot  %s",
					q, pass, want, got)
			}
		}
	}

	// And back down to an unsharded corpus.
	src2, err := LoadString(xmlA)
	if err != nil {
		t.Fatal(err)
	}
	c.Reload(src2)
	if got := c.Shards(); got != 1 {
		t.Fatalf("shards after second reload = %d, want 1", got)
	}
	freshA, err := LoadString(xmlA)
	if err != nil {
		t.Fatal(err)
	}
	defer freshA.Close()
	wantHits, err := freshA.Query("austin store", 10)
	if err != nil {
		t.Fatal(err)
	}
	hits, err := c.Query("austin store", 10)
	if err != nil {
		t.Fatal(err)
	}
	if renderFacadeHits(hits) != renderFacadeHits(wantHits) {
		t.Fatal("response after reload back to corpus A differs from fresh load")
	}
}

// TestConcurrentReloadsConverge: racing Reload calls are serialized, so
// whichever finishes last leaves the facade data and the serving backend
// pointing at the same generation — never a split-brain where queries
// serve one corpus and Stats/Suggest read another.
func TestConcurrentReloadsConverge(t *testing.T) {
	xmlA := xmltree.XMLString(gen.Figure5Corpus().Root)
	c, err := LoadString(xmlA)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := c.Query("store", 6); err != nil { // start the serving layer
		t.Fatal(err)
	}

	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		src, err := LoadString(xmlA, WithShards(1+i%3))
		if err != nil {
			t.Fatal(err)
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			c.Reload(src)
		}()
	}
	wg.Wait()

	if got, want := c.srv.Backend(), c.data.Load().backend(); got != want {
		t.Fatalf("serving backend and facade data diverged after racing reloads: %T vs %T", got, want)
	}
	if _, err := c.Query("store", 6); err != nil {
		t.Fatal(err)
	}
}

// TestConcurrentQueriesDuringReload hammers a corpus with queries while it
// reloads repeatedly, alternating data and shape. Every response must be
// byte-identical to one of the two corpus generations — never an error,
// never a mix (run under -race in CI).
func TestConcurrentQueriesDuringReload(t *testing.T) {
	mkA := func() *xmltree.Document {
		return gen.Stores(gen.StoresConfig{Retailers: 4, StoresPerRetailer: 2, ClothesPerStore: 3, Seed: 41})
	}
	mkB := func() *xmltree.Document {
		return gen.Stores(gen.StoresConfig{Retailers: 6, StoresPerRetailer: 3, ClothesPerStore: 2, Seed: 42})
	}
	xmlA, xmlB := xmltree.XMLString(mkA().Root), xmltree.XMLString(mkB().Root)
	queries := []string{"store texas", "retailer jeans", "store"}

	// Reference renders per generation (shape-independent: sharded and
	// unsharded answers are pinned byte-identical elsewhere).
	ref := make(map[string][2]string)
	freshA, err := LoadString(xmlA)
	if err != nil {
		t.Fatal(err)
	}
	freshB, err := LoadString(xmlB)
	if err != nil {
		t.Fatal(err)
	}
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

	c, err := LoadString(xmlA)
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
					t.Errorf("q=%q: response matches neither corpus generation\ngot %s", q, got)
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
		var opts []Option
		if i%3 == 0 {
			opts = append(opts, WithShards(2)) // shape changes mid-flight too
		}
		src, err := LoadString(xml, opts...)
		if err != nil {
			t.Error(err)
			break
		}
		c.Reload(src)
	}
	close(stop)
	wg.Wait()
}
