package extract

import (
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"extract/internal/core"
	"extract/internal/gen"
	"extract/internal/index"
	"extract/xmltree"
)

// heldHit is what a caller observed of one hit at the moment it was
// returned.
type heldHit struct {
	hit                  *Hit
	result, snippet, key string
}

// derivedOf is what a snippet's first read of its tree and IList answers:
// the tree, the IList and the covered items.
func derivedOf(s *Snippet) string {
	return fmt.Sprintf("%s\nilist %q\ncovered %q", xmltree.XMLString(s.Root()), s.IList(), s.Covered())
}

// unread is a held query hit whose snippet tree and IList nothing has read
// yet, and what Corpus.Snippet made of its result before the reload.
type unread struct {
	hit  *Hit
	want string
}

// firstRead reads u's snippet tree and IList for the first time and checks
// them against what Corpus.Snippet gave before the reload.
func (u unread) firstRead(t *testing.T, when string) {
	t.Helper()
	if pending, _ := u.hit.Snippet.g.Encoded(); !pending {
		t.Fatalf("%s: the held snippet was derived before its first read", when)
	}
	if got := derivedOf(u.hit.Snippet); got != u.want {
		t.Errorf("%s: the first read of a held snippet\n%s\nwant\n%s", when, got, u.want)
	}
}

func (h heldHit) check(t *testing.T, when string) {
	if got := must(h.hit.Result.XML()); got != h.result {
		t.Errorf("%s: held result changed\nwas %s\nnow %s", when, h.result, got)
	}
	if got := h.hit.Snippet.XML(); got != h.snippet {
		t.Errorf("%s: held snippet changed\nwas %s\nnow %s", when, h.snippet, got)
	}
	if got := h.hit.Snippet.ResultKey(); got != h.key {
		t.Errorf("%s: held result key changed: was %q, now %q", when, h.key, got)
	}
}

// TestHeldHitsAreImmutable pins the invariant zero-copy results rest on: a
// served document is never mutated after its first query. Results are views
// of the corpus documents, so a hit a caller still holds shares its nodes
// with everything that happens to the corpus afterwards — a delta reload that
// adopts the hit's shard into the next generation and rebuilds its
// neighbour, whole-document results and XPath selections whose trees are
// built from the shard documents, concurrent queries over both generations, Close. None of it may
// change a byte of what the hit renders, and (the test runs under -race in
// CI) none of it may write what a holder reads. A local hit's snippet derives
// its tree and IList again from its result on the first read: half the query
// hits read them for the first time after the reload, the other half after
// Close, and each equals what Corpus.Snippet made of the result before the
// reload.
func TestHeldHitsAreImmutable(t *testing.T) {
	dir := t.TempDir()
	fileA, fileB := filepath.Join(dir, "a.xml"), filepath.Join(dir, "b.xml")
	if err := os.WriteFile(fileA, []byte(xmltree.XMLString(deltaBaseDoc().Root)), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(fileB, []byte(xmltree.XMLString(deltaVariants()["one-entity"]().Root)), 0o644); err != nil {
		t.Fatal(err)
	}
	opts := []Option{WithShards(3)}
	c, err := LoadFile(fileA, opts...)
	if err != nil {
		t.Fatal(err)
	}

	// "retailers" matches the root alone, so the root qualifies as the LCA
	// and the answer is the whole-document result.
	const rootQuery = "retailers"
	queries := append(deltaQueries(deltaBaseDoc), "store texas", rootQuery)
	optCases := [][]SearchOption{nil, {WithELCA()}, {WithTrimmedResults()}, {WithRanking()}, {WithMaxResults(3)}}

	var held []heldHit
	var first [2][]unread // read after the reload, and after Close
	seen := make(map[*core.Generated]bool)
	hold := func(hits []*Hit) {
		for _, h := range hits {
			held = append(held, heldHit{h, must(h.Result.XML()), h.Snippet.XML(), h.Snippet.ResultKey()})
		}
	}
	for _, q := range queries {
		for _, so := range optCases {
			hits, err := c.Query(q, 8, so...)
			if err != nil {
				t.Fatalf("%q: %v", q, err)
			}
			hold(hits)
			for _, h := range hits {
				if seen[h.Snippet.g] { // a hit of a cached entry held already
					continue
				}
				seen[h.Snippet.g] = true
				u := unread{h, derivedOf(must(c.Snippet(h.Result, q, 8)))}
				k := len(first[0]) + len(first[1])
				first[k%2] = append(first[k%2], u)
			}
		}
	}
	// XPath results view the whole document of the first generation, built
	// from its shards.
	xs, err := c.XPath("//store")
	if err != nil || len(xs) == 0 {
		t.Fatalf("xpath: %d results, %v", len(xs), err)
	}
	for _, r := range xs {
		hold([]*Hit{{Result: r, Snippet: must(c.Snippet(r, "store city", 6))}})
	}
	if len(held) < 50 {
		t.Fatalf("only %d hits held", len(held))
	}

	// A holder keeps reading while everything below happens.
	stop, reading := make(chan struct{}), sync.WaitGroup{}
	reading.Add(1)
	go func() {
		defer reading.Done()
		for {
			for _, h := range held {
				select {
				case <-stop:
					return
				default:
					h.check(t, "while the corpus moved on")
				}
			}
		}
	}()

	stats, err := c.ReloadDeltaFile(fileB, opts...)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Reused == 0 || stats.Rebuilt == 0 {
		t.Fatalf("delta reload %+v: want shards adopted and a shard rebuilt", stats)
	}
	hits, err := c.Query(rootQuery, 8)
	if err != nil || len(hits) != 1 || must(hits[0].Result.Root()).Label != "retailers" {
		t.Fatalf("root query after the reload: %d hits, %v", len(hits), err)
	}
	var querying sync.WaitGroup
	for w := 0; w < 4; w++ {
		querying.Add(1)
		go func(w int) {
			defer querying.Done()
			for i, q := range queries {
				if _, err := c.Query(q, 8, optCases[(i+w)%len(optCases)]...); err != nil {
					t.Errorf("%q: %v", q, err)
				}
			}
		}(w)
	}
	querying.Wait()
	for _, u := range first[0] {
		u.firstRead(t, "after the reload")
	}
	c.Close()
	close(stop)
	reading.Wait()

	for _, u := range first[1] {
		u.firstRead(t, "after Close")
	}
	for _, h := range held {
		h.check(t, "after reload, queries and Close")
	}
}

// TestRootInvolvingSnippetBuildsNoCopy: a root-involving local hit's snippet
// derives its tree and IList on the first read from the whole-document view
// its result reads (search.Result.Space), and Corpus.Snippet snippets that
// result the same way, at 1, 3 and 4 shards. Neither builds an index
// (index.Builds stays put) nor the result's tree (it stays deferred), the
// tree the first read derives is the one its XML was rendered from, and
// Corpus.Snippet renders the same XML. A copy of the document that builds no
// index still shows: Corpus.Snippet allocates the same number of objects on
// two corpus sizes a tenfold apart. Reading the result's XML builds its tree
// and no index, and reads as the one-shard corpus's.
func TestRootInvolvingSnippetBuildsNoCopy(t *testing.T) {
	counts := make(map[int]float64) // objects a Corpus.Snippet, by shard count
	nodes := make([]int, 2)
	for ci, clothes := range []int{3, 60} {
		doc := gen.Stores(gen.StoresConfig{Retailers: 4, StoresPerRetailer: 8, ClothesPerStore: clothes, Seed: 5})
		nodes[ci] = doc.Len()
		query := doc.Root.Label // the root alone matches
		var wantXML string
		for _, shards := range []int{1, 3, 4} {
			c, err := LoadString(xmltree.XMLString(doc.Root), WithShards(shards), WithQueryCache(0))
			if err != nil {
				t.Fatal(err)
			}
			hits, err := c.Query(query, 8)
			if err != nil || len(hits) != 1 {
				t.Fatalf("%d shards: %d hits, %v", shards, len(hits), err)
			}
			hit := hits[0]
			builds := index.Builds()
			root := hit.Snippet.Root()
			snippet := func() *Snippet { return must(c.Snippet(hit.Result, query, 8)) }
			if got := snippet().XML(); got != hit.Snippet.XML() {
				t.Errorf("%d shards: Corpus.Snippet of the root hit\n%s\nwant\n%s", shards, got, hit.Snippet.XML())
			}
			if n := index.Builds() - builds; n != 0 {
				t.Errorf("%d shards: snippeting a root-involving hit built %d indexes: the document was copied", shards, n)
			}
			if _, deferred := hit.Result.r.Retained(); shards > 1 && !deferred {
				t.Errorf("%d shards: snippeting a root-involving hit built its result's tree", shards)
			}
			if root.Label != query || xmltree.XMLString(root) != hit.Snippet.XML() {
				t.Errorf("%d shards: the derived tree is not the one the XML was rendered from:\n%s\nwant\n%s", shards, xmltree.XMLString(root), hit.Snippet.XML())
			}
			if !raceDetector {
				for range 5 { // the pooled scratch grows
					snippet()
				}
				got := testing.AllocsPerRun(20, func() { snippet() })
				if ci == 0 {
					counts[shards] = got
				} else if got != counts[shards] {
					t.Errorf("%d shards: Corpus.Snippet of the root hit allocates %v objects on a %d-node corpus, %v on %d nodes", shards, got, nodes[1], counts[shards], nodes[0])
				}
			}
			// Reading the result's XML builds its tree, and no index: the
			// whole document as the unsharded corpus holds it.
			builds = index.Builds()
			if got := must(hit.Result.XML()); shards == 1 {
				wantXML = got
			} else if got != wantXML {
				t.Errorf("%d shards: the root hit's result XML differs from the unsharded corpus's", shards)
			}
			if n := index.Builds() - builds; n != 0 {
				t.Errorf("%d shards: reading a root hit's result XML built %d indexes", shards, n)
			}
			c.Close()
		}
	}
}
