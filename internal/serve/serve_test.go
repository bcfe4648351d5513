package serve

import (
	"context"
	"fmt"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"extract/internal/core"
	"extract/internal/faultinject"
	"extract/internal/gen"
	"extract/internal/search"
	"extract/internal/shard"
	"extract/internal/workload"
	"extract/xmltree"
)

func testCorpora() map[string]func() *xmltree.Document {
	return map[string]func() *xmltree.Document{
		"figure1": gen.Figure1Corpus,
		"stores": func() *xmltree.Document {
			return gen.Stores(gen.StoresConfig{Retailers: 6, StoresPerRetailer: 3, ClothesPerStore: 5, Seed: 21})
		},
		"movies": func() *xmltree.Document {
			return gen.Movies(gen.MoviesConfig{Movies: 10, Seed: 9})
		},
		"auctions": func() *xmltree.Document {
			return gen.Auctions(gen.AuctionsConfig{Seed: 17})
		},
	}
}

func corpusQueries(doc *xmltree.Document) []string {
	qs := []string{"zzznope", "zzznope store"}
	for _, q := range workload.Generate(doc, workload.Config{Queries: 8, Keywords: 2, Seed: 3}) {
		qs = append(qs, q.Text())
	}
	for _, q := range workload.Generate(doc, workload.Config{Queries: 4, Keywords: 3, Seed: 41}) {
		qs = append(qs, q.Text())
	}
	return qs
}

// renderHits flattens a (results, snippets) response to comparable bytes,
// each snippet with the keywords it records.
func renderHits(rs []*search.Result, gs []*core.Generated) []string {
	out := make([]string, 0, len(rs))
	for i, r := range rs {
		line := xmltree.XMLString(r.Root)
		if gs != nil {
			line += fmt.Sprintf("\n%s\n%q", xmltree.XMLString(gs[i].Derived().Snippet.Root), gs[i].Keywords)
		}
		out = append(out, line)
	}
	return out
}

// uncachedHits computes the reference response straight off the sharded
// engine, bypassing the serving layer entirely.
func uncachedHits(sc *shard.Corpus, query string, opts search.Options, bound int) ([]string, error) {
	rs, err := sc.Search(query, opts)
	if err != nil {
		return nil, err
	}
	g := core.NewGenerator(sc.Analysis())
	gs := make([]*core.Generated, len(rs))
	for i, r := range rs {
		gs[i] = g.ForResult(r, query, bound)
	}
	return renderHits(rs, gs), nil
}

// TestCachedEqualsUncached is the serving layer's core property: for any
// corpus, shard count and query mix, cached responses — first computation,
// cache hit, and post-swap recomputation — are byte-identical to evaluating
// the same query directly on the sharded engine, snippet keywords included;
// and a response served to a respelling of the query that computed it
// (a duplicated term, another case, extra spaces) is what that respelling
// computes: a cache entry depends only on its key.
func TestCachedEqualsUncached(t *testing.T) {
	optsList := []search.Options{
		{DistinctAnchors: true},
		{DistinctAnchors: true, Semantics: search.SemanticsELCA},
		{DistinctAnchors: true, Mode: search.ModeXSeek},
		{DistinctAnchors: true, MaxResults: 3},
	}
	for name, mk := range testCorpora() {
		for _, shards := range []int{2, 4} {
			sc := shard.Build(mk(), shards)
			srv := New(sc, WithWorkers(3))
			defer srv.Close()
			queries := corpusQueries(mk())
			for _, opts := range optsList {
				for _, canonical := range queries {
					// Right after the canonical spelling, its respellings —
					// a duplicated term, a case change, extra spaces — hit
					// its entry, and must be served what they compute.
					spellings := []string{canonical, canonical, canonical,
						canonical + " " + strings.Fields(canonical)[0], strings.ToUpper(canonical),
						"  " + strings.ReplaceAll(canonical, " ", "   ") + " "}
					for pass, q := range spellings {
						label := fmt.Sprintf("%s/n=%d/sem=%d/mode=%d/max=%d/q=%q",
							name, shards, opts.Semantics, opts.Mode, opts.MaxResults, q)
						want, werr := uncachedHits(sc, q, opts, 10)
						rs, gs, gerr := srv.QueryContext(context.Background(), q, opts, 10)
						if (werr == nil) != (gerr == nil) {
							t.Fatalf("%s pass %d: errors differ: %v vs %v", label, pass, werr, gerr)
						}
						if werr != nil {
							continue
						}
						got := renderHits(rs, gs)
						if len(got) != len(want) {
							t.Fatalf("%s pass %d: %d hits, want %d", label, pass, len(got), len(want))
						}
						for i := range want {
							if got[i] != want[i] {
								t.Fatalf("%s pass %d: hit %d differs\nwant %s\ngot  %s",
									label, pass, i, want[i], got[i])
							}
						}
					}
				}
			}
			st := srv.Stats()
			if st.Hits == 0 {
				t.Fatalf("%s/n=%d: repeated queries never hit the cache (%+v)", name, shards, st)
			}
		}
	}
}

// TestSwapInvalidates pins the invalidation rule: after Swap the server
// answers from the new corpus, never from entries cached against the old
// one.
func TestSwapInvalidates(t *testing.T) {
	mkA := func() *xmltree.Document {
		return gen.Stores(gen.StoresConfig{Retailers: 4, StoresPerRetailer: 2, ClothesPerStore: 4, Seed: 5})
	}
	mkB := func() *xmltree.Document {
		return gen.Stores(gen.StoresConfig{Retailers: 7, StoresPerRetailer: 3, ClothesPerStore: 3, Seed: 99})
	}
	opts := search.Options{DistinctAnchors: true}
	scA, scB := shard.Build(mkA(), 3), shard.Build(mkB(), 3)
	srv := New(scA)
	defer srv.Close()

	queries := corpusQueries(mkA())
	for _, q := range queries { // populate the cache against corpus A
		if _, _, err := srv.QueryContext(context.Background(), q, opts, 10); err != nil {
			t.Fatal(err)
		}
	}
	srv.Swap(scB)
	if st := srv.Stats(); st.Entries != 0 || st.Bytes != 0 {
		t.Fatalf("swap left cache entries behind: %+v", st)
	}
	for _, q := range append(queries, corpusQueries(mkB())...) {
		want, werr := uncachedHits(scB, q, opts, 10)
		for pass := 0; pass < 2; pass++ {
			rs, gs, gerr := srv.QueryContext(context.Background(), q, opts, 10)
			if (werr == nil) != (gerr == nil) {
				t.Fatalf("q=%q pass %d: errors differ: %v vs %v", q, pass, werr, gerr)
			}
			if werr != nil {
				continue
			}
			got := renderHits(rs, gs)
			if fmt.Sprint(got) != fmt.Sprint(want) {
				t.Fatalf("q=%q pass %d after swap: response differs from corpus B\nwant %v\ngot  %v",
					q, pass, want, got)
			}
		}
	}
}

// TestSearchOnlyCaching covers the Search entry point and that its keys do
// not collide with Query keys for the same keywords.
func TestSearchOnlyCaching(t *testing.T) {
	sc := shard.Build(gen.Figure1Corpus(), 2)
	srv := New(sc)
	defer srv.Close()
	opts := search.Options{DistinctAnchors: true}

	queries := corpusQueries(gen.Figure1Corpus())
	for _, q := range queries {
		want, werr := sc.Search(q, opts)
		for pass := 0; pass < 2; pass++ {
			v, gerr := srv.Do(context.Background(), q, opts, -1)
			if (werr == nil) != (gerr == nil) {
				t.Fatalf("q=%q: errors differ: %v vs %v", q, werr, gerr)
			}
			if werr != nil {
				continue
			}
			got := v.Results
			if len(got) != len(want) {
				t.Fatalf("q=%q pass %d: %d results, want %d", q, pass, len(got), len(want))
			}
			for i := range want {
				w, g := xmltree.XMLString(want[i].Root), xmltree.XMLString(got[i].Root)
				if w != g {
					t.Fatalf("q=%q pass %d: result %d differs\nwant %s\ngot %s", q, pass, i, w, g)
				}
			}
		}
		if _, _, err := srv.QueryContext(context.Background(), q, opts, 10); err != nil {
			t.Fatal(err)
		}
	}
}

// TestCacheDisabled checks a zero budget keeps serving correct answers
// without retaining entries.
func TestCacheDisabled(t *testing.T) {
	sc := shard.Build(gen.Figure1Corpus(), 2)
	srv := New(sc, WithCacheBytes(0))
	defer srv.Close()
	opts := search.Options{DistinctAnchors: true}
	q := "retailer texas"
	want, err := uncachedHits(sc, q, opts, 8)
	if err != nil {
		t.Fatal(err)
	}
	for pass := 0; pass < 3; pass++ {
		rs, gs, err := srv.QueryContext(context.Background(), q, opts, 8)
		if err != nil {
			t.Fatal(err)
		}
		if got := renderHits(rs, gs); fmt.Sprint(got) != fmt.Sprint(want) {
			t.Fatalf("pass %d: response differs", pass)
		}
	}
	st := srv.Stats()
	if st.Entries != 0 || st.Hits != 0 {
		t.Fatalf("disabled cache retained state: %+v", st)
	}
}

// smallCacheBytes is the budget of the tests driving the LRU directly:
// 1088 bytes per cache shard, so that two minimal entries (an empty Cached
// costs its fixed 512 bytes plus its key, a dozen bytes here) fill a shard
// and a third overflows it.
const smallCacheBytes = 17 << 10

// testKey is the search-only key of a one-keyword query distinct per i.
func testKey(i int) string {
	return cacheKey(search.Parse(fmt.Sprintf("k%d", i)), search.Options{}, -1)
}

// TestEvictionBound drives the LRU directly with minimal entries (an empty
// Cached costs its fixed overhead): inserting far more bytes than the
// budget must evict, and the byte accounting must stay within budget
// (cold equal-frequency keys churn LRU-style — the admission filter only
// protects entries whose hits have grown their frequency).
func TestEvictionBound(t *testing.T) {
	c := NewCache(smallCacheBytes)
	for i := 0; i < 100; i++ {
		if _, _, err := c.do(context.Background(), testKey(i), func(*Cached) (*Cached, error) { return &Cached{}, nil }); err != nil {
			t.Fatal(err)
		}
	}
	st := c.stats()
	if st.Bytes > st.Capacity {
		t.Fatalf("cache over budget: %+v", st)
	}
	if st.Evictions == 0 || st.Entries >= 100 {
		t.Fatalf("100 oversize-in-aggregate inserts never evicted: %+v", st)
	}
}

// TestLRURecency pins the eviction order: with two entries filling one
// cache shard, touching the older one makes the other the eviction victim.
func TestLRURecency(t *testing.T) {
	c := NewCache(smallCacheBytes)

	// The shard hash is seeded per cache, so discover three keys that
	// land in one shard instead of assuming placement.
	byShard := map[*cacheShard][]string{}
	var keys []string
	for i := 0; len(keys) == 0 && i < 1<<14; i++ {
		k := testKey(i)
		s := c.shardFor(k)
		byShard[s] = append(byShard[s], k)
		if len(byShard[s]) == 3 {
			keys = byShard[s]
		}
	}
	if len(keys) != 3 {
		t.Fatal("could not find three co-located keys")
	}
	a, b, x := keys[0], keys[1], keys[2]
	computed := map[string]int{}
	add := func(k string) {
		if _, _, err := c.do(context.Background(), k, func(*Cached) (*Cached, error) {
			computed[k]++
			return &Cached{}, nil
		}); err != nil {
			t.Fatal(err)
		}
	}
	add(a)
	add(b)
	add(a) // refresh a: b becomes least recently used
	add(x) // overflows the shard: must evict b, not a
	add(a)
	add(x)
	add(b) // b (asked twice) cannot displace a (asked three times): rejected
	if computed[a] != 1 || computed[x] != 1 {
		t.Fatalf("recently used entries recomputed: %v", computed)
	}
	if computed[b] != 2 {
		t.Fatalf("LRU victim b computed %d times, want 2 (evicted once): %v", computed[b], computed)
	}
	if st := c.stats(); st.Rejected == 0 {
		t.Fatalf("admission filter never rejected the colder candidate: %+v", st)
	}
}

// TestScanResistance pins the admission filter's guarantee: a long stream
// of one-off queries (each key seen exactly once) can fill spare capacity
// but never evicts the warm working set, so the working set keeps hitting
// after the scan.
func TestScanResistance(t *testing.T) {
	c := NewCache(smallCacheBytes)

	computed := map[string]int{}
	add := func(k string) {
		if _, _, err := c.do(context.Background(), k, func(*Cached) (*Cached, error) {
			computed[k]++
			return &Cached{}, nil
		}); err != nil {
			t.Fatal(err)
		}
	}

	// A working set of four keys in four distinct cache shards (discovered,
	// not assumed: the shard hash is seeded per cache), each hammered so
	// its frequency clearly exceeds anything a one-off can accumulate.
	seen := map[*cacheShard]bool{}
	var working []string
	for i := 0; len(working) < 4 && i < 1<<14; i++ {
		k := testKey(i)
		if s := c.shardFor(k); !seen[s] {
			seen[s] = true
			working = append(working, k)
		}
	}
	if len(working) != 4 {
		t.Fatal("could not find four shard-distinct keys")
	}
	for pass := 0; pass < 8; pass++ {
		for _, k := range working {
			add(k)
		}
	}
	for _, k := range working {
		if computed[k] != 1 {
			t.Fatalf("working-set key not cached after warmup: %v", computed)
		}
	}

	// The scan: 2000 distinct one-off queries, far more than the whole
	// cache could hold.
	for i := 0; i < 2000; i++ {
		add(testKey(1<<20 + i))
	}

	// The working set must have survived: every lookup hits, nothing is
	// recomputed. (One-offs may churn among themselves in working-set-free
	// shards; what the filter forbids is displacing the hammered keys.)
	for _, k := range working {
		add(k)
		if computed[k] != 1 {
			t.Fatalf("scan evicted working-set key (computed %d times)", computed[k])
		}
	}
	st := c.stats()
	if st.Rejected == 0 {
		t.Fatalf("scan inserts were never rejected: %+v", st)
	}
	if st.Bytes > st.Capacity {
		t.Fatalf("cache over budget: %+v", st)
	}
}

// keyTriple is one (query, options, bound) input of the cache key.
type keyTriple struct {
	query string
	opts  search.Options
	bound int
}

func (k keyTriple) key() string { return cacheKey(search.Parse(k.query), k.opts, k.bound) }

// sameResponse is the specification cacheKey is held to (here and in
// FuzzCacheKey): two triples may share a cache entry iff ParseQuery yields
// the same term sequence, the options are equal and the bounds are equal —
// every negative bound being the one search-only request.
func sameResponse(a, b keyTriple) bool {
	norm := func(bound int) int { return max(bound, -1) }
	return reflect.DeepEqual(search.ParseQuery(a.query), search.ParseQuery(b.query)) &&
		a.opts == b.opts && norm(a.bound) == norm(b.bound)
}

// TestKeyRoundTrip is the table form of the key's injectivity property: the
// pairs that must share a key, the pairs that must not, and in every row the
// key agreeing with sameResponse.
func TestKeyRoundTrip(t *testing.T) {
	distinct := search.Options{DistinctAnchors: true}
	cases := []struct {
		name string
		a, b keyTriple
		same bool
	}{
		{"identical", keyTriple{"store texas", distinct, 10}, keyTriple{"store texas", distinct, 10}, true},
		{"respelled: case and separators", keyTriple{"store  texas", distinct, 10}, keyTriple{"Store, TEXAS!", distinct, 10}, true},
		{"respelled: repeated keyword", keyTriple{"store texas", distinct, 10}, keyTriple{"store texas store", distinct, 10}, true},
		{"respelled: one-word phrase", keyTriple{`"store" texas`, distinct, 10}, keyTriple{"store texas", distinct, 10}, true},
		{"respelled: unbalanced quote", keyTriple{`"brook brothers`, distinct, 10}, keyTriple{`"Brook Brothers"`, distinct, 10}, true},
		{"every negative bound is search-only", keyTriple{"store", distinct, -1}, keyTriple{"store", distinct, -7}, true},
		{"permutation", keyTriple{"store texas", distinct, 10}, keyTriple{"texas store", distinct, 10}, false},
		{"phrase vs words", keyTriple{`"a b"`, distinct, 10}, keyTriple{"a b", distinct, 10}, false},
		{"phrase split differently", keyTriple{`"a b" c`, distinct, 10}, keyTriple{`a "b c"`, distinct, 10}, false},
		{"token boundary", keyTriple{"ab c", distinct, 10}, keyTriple{"a bc", distinct, 10}, false},
		{"prefix", keyTriple{"store", distinct, 10}, keyTriple{"store texas", distinct, 10}, false},
		{"search-only vs bound 0", keyTriple{"a b", distinct, -1}, keyTriple{"a b", distinct, 0}, false},
		{"bound", keyTriple{"a b", distinct, 5}, keyTriple{"a b", distinct, 6}, false},
		{"distinct anchors", keyTriple{"a b", distinct, 5}, keyTriple{"a b", search.Options{}, 5}, false},
		{"semantics", keyTriple{"a b", search.Options{Semantics: search.SemanticsELCA}, 5}, keyTriple{"a b", search.Options{}, 5}, false},
		{"mode", keyTriple{"a b", search.Options{Mode: search.ModeXSeek}, 5}, keyTriple{"a b", search.Options{}, 5}, false},
		{"max results", keyTriple{"a b", search.Options{MaxResults: 25}, 5}, keyTriple{"a b", search.Options{MaxResults: 26}, 5}, false},
		{"max results vs bound", keyTriple{"a b", search.Options{MaxResults: 1}, 2}, keyTriple{"a b", search.Options{MaxResults: 2}, 1}, false},
	}
	for _, c := range cases {
		if got := sameResponse(c.a, c.b); got != c.same {
			t.Errorf("%s: sameResponse = %v, the table says %v", c.name, got, c.same)
		}
		if got := c.a.key() == c.b.key(); got != c.same {
			t.Errorf("%s: keys equal = %v, want %v (%q vs %q)", c.name, got, c.same, c.a.key(), c.b.key())
		}
	}
}

// TestVocabularyChurnNeverDisablesCaching: no amount of distinct vocabulary
// — every term and every phrase here is new to the server — changes how the
// next query is served. After thousands of such queries across a Swap, a
// repeated novel query is a hit, and concurrent identical novel queries
// compute once.
func TestVocabularyChurnNeverDisablesCaching(t *testing.T) {
	defer faultinject.Reset()
	srv := New(shard.Build(gen.Figure1Corpus(), 2))
	defer srv.Close()
	opts := search.Options{DistinctAnchors: true}
	ctx := context.Background()

	for i := 0; i < 4000; i++ {
		if i == 2000 {
			srv.Swap(shard.Build(gen.Figure1Corpus(), 2))
		}
		if _, err := srv.Do(ctx, fmt.Sprintf(`zq%d "zp%d zr%d"`, i, i, i), opts, 8); err != nil {
			t.Fatal(err)
		}
	}

	before := srv.Stats()
	for pass := 0; pass < 2; pass++ {
		if _, err := srv.Do(ctx, `novelword "novel phrase"`, opts, 8); err != nil {
			t.Fatal(err)
		}
	}
	st := srv.Stats()
	if st.Misses != before.Misses+1 || st.Hits != before.Hits+1 {
		t.Fatalf("a repeated novel query must miss once, then hit: before %+v, after %+v", before, st)
	}

	// The leader parks in evaluation until every follower has joined its
	// flight, so none of them can arrive late and hit the finished entry.
	const callers = 16
	before = st
	release := make(chan struct{})
	faultinject.Set(faultinject.ShardEval, func() error { <-release; return nil })
	var wg sync.WaitGroup
	for g := 0; g < callers; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := srv.Do(ctx, `texas "another novel phrase"`, opts, 8); err != nil {
				t.Error(err)
			}
		}()
	}
	for deadline := time.Now().Add(10 * time.Second); srv.Stats().Coalesced < before.Coalesced+callers-1; {
		if time.Now().After(deadline) {
			close(release)
			t.Fatalf("followers never joined the flight: %+v", srv.Stats())
		}
		time.Sleep(100 * time.Microsecond)
	}
	close(release)
	wg.Wait()
	st = srv.Stats()
	if st.Misses != before.Misses+1 || st.Coalesced != before.Coalesced+callers-1 || st.Hits != before.Hits {
		t.Fatalf("%d concurrent identical novel queries must compute once: before %+v, after %+v", callers, before, st)
	}
}

// TestSwapDuringFlight: a response computed against a corpus that was
// swapped out mid-flight must never enter the cache (the epoch is
// re-validated under the cache-shard lock).
func TestSwapDuringFlight(t *testing.T) {
	scA := shard.Build(gen.Figure1Corpus(), 2)
	scB := shard.Build(gen.Figure1Corpus(), 2)
	srv := New(scA)
	defer srv.Close()

	// Simulate the race deterministically at the cache layer: the flight
	// starts at the current epoch, the swap happens while compute runs.
	key := cacheKey(search.Parse("retailer texas"), search.Options{}, -1)
	if _, _, err := srv.cache.do(context.Background(), key, func(*Cached) (*Cached, error) {
		srv.Swap(scB) // corpus swapped out from under the computation
		return &Cached{}, nil
	}); err != nil {
		t.Fatal(err)
	}
	if st := srv.Stats(); st.Entries != 0 {
		t.Fatalf("stale flight was cached across a swap: %+v", st)
	}
}
