package extract

import (
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"extract/internal/core"
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
// neighbour, the whole-document fallback reconstructed from the shard
// documents, concurrent queries over both generations, Close. None of it may
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
	// and the query is answered on the fallback document.
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
	// XPath results view the fallback document of the first generation.
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
		h.check(t, "after reload, fallback, queries and Close")
	}
}

// TestRootInvolvingSnippetBuildsNoCopy: a root-involving local hit's snippet
// derives its tree and IList on the first read from the whole-document view
// its result reads (search.Result.Space), at 1 and 3 shards: the read builds
// no index (index.Builds stays put), so no copy of the document is made, and
// the tree it derives is the one its XML was rendered from.
func TestRootInvolvingSnippetBuildsNoCopy(t *testing.T) {
	for _, shards := range []int{1, 3} {
		c, err := LoadString(xmltree.XMLString(deltaBaseDoc().Root), WithShards(shards), WithQueryCache(0))
		if err != nil {
			t.Fatal(err)
		}
		hits, err := c.Query("retailers", 8) // the root alone matches
		if err != nil || len(hits) != 1 {
			t.Fatalf("%d shards: %d hits, %v", shards, len(hits), err)
		}
		s := hits[0].Snippet
		builds := index.Builds()
		root := s.Root()
		if n := index.Builds() - builds; n != 0 {
			t.Errorf("%d shards: the first read of a root-involving snippet built %d indexes: the document was copied", shards, n)
		}
		if root.Label != "retailers" || xmltree.XMLString(root) != s.XML() {
			t.Errorf("%d shards: the derived tree is not the one the XML was rendered from:\n%s\nwant\n%s", shards, xmltree.XMLString(root), s.XML())
		}
		c.Close()
	}
}
