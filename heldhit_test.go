package extract

import (
	"os"
	"path/filepath"
	"sync"
	"testing"

	"extract/xmltree"
)

// heldHit is what a caller observed of one hit at the moment it was
// returned.
type heldHit struct {
	hit                  *Hit
	result, snippet, key string
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
// CI) none of it may write what a holder reads.
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
	c.Close()
	close(stop)
	reading.Wait()

	for _, h := range held {
		h.check(t, "after reload, fallback, queries and Close")
	}
}
