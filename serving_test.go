package extract

import (
	"strings"
	"testing"

	"extract/internal/gen"
	"extract/xmltree"
)

// TestServedQueryRepeatsIdentical: on a sharded corpus the facade answers
// repeated queries from the serving layer's cache; every repetition —
// unranked and ranked — must be byte-identical to the first, and the cache
// counters must show the hits.
func TestServedQueryRepeatsIdentical(t *testing.T) {
	sharded := FromDocumentSharded(gen.Figure5Corpus(), nil, 4)
	defer sharded.Close()
	render := func(hits []*Hit) string {
		var b strings.Builder
		for _, h := range hits {
			b.WriteString(must(h.Result.XML()))
			b.WriteString(h.Snippet.Inline())
		}
		return b.String()
	}
	for _, opts := range [][]SearchOption{nil, {WithRanking()}, {WithELCA()}} {
		first, err := sharded.Query("austin store", 10, opts...)
		if err != nil {
			t.Fatal(err)
		}
		want := render(first)
		for pass := 0; pass < 3; pass++ {
			hits, err := sharded.Query("austin store", 10, opts...)
			if err != nil {
				t.Fatal(err)
			}
			if got := render(hits); got != want {
				t.Fatalf("opts %d pass %d: served response drifted\nwant %s\ngot  %s",
					len(opts), pass, want, got)
			}
		}
	}
	st, ok := sharded.QueryCacheStats()
	if !ok {
		t.Fatal("sharded corpus reports no cache stats")
	}
	if st.Hits == 0 || st.Misses == 0 || st.Entries == 0 {
		t.Fatalf("cache counters not moving: %+v", st)
	}
	// Ranked and unranked share one entry (ranking reorders a copy), so
	// with ELCA as the only extra key there are exactly two entries.
	if st.Entries != 2 {
		t.Fatalf("entries = %d, want 2 (ranked/unranked shared; ELCA separate): %+v", st.Entries, st)
	}

	// Unsharded corpora serve through the same layer and report stats too.
	unsharded := FromDocument(gen.Figure5Corpus(), nil)
	defer unsharded.Close()
	if _, err := unsharded.Query("austin store", 10); err != nil {
		t.Fatal(err)
	}
	ust, ok := unsharded.QueryCacheStats()
	if !ok || ust.Misses == 0 {
		t.Fatalf("unsharded corpus must report cache stats: ok=%v %+v", ok, ust)
	}
}

// TestServingLoadOptions wires WithWorkers/WithQueryCache through Load.
func TestServingLoadOptions(t *testing.T) {
	xml := xmltree.XMLString(gen.Figure5Corpus().Root)
	c, err := LoadString(xml, WithShards(3), WithWorkers(2), WithQueryCache(1<<20))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if c.Shards() < 2 {
		t.Fatalf("shards = %d", c.Shards())
	}
	if _, err := c.Query("store texas", 8); err != nil {
		t.Fatal(err)
	}
	st, ok := c.QueryCacheStats()
	if !ok || st.Capacity != 1<<20 {
		t.Fatalf("capacity = %d ok=%v, want the 1 MiB budget", st.Capacity, ok)
	}

	// A zero budget disables caching but serving still answers.
	c2, err := LoadString(xml, WithShards(3), WithQueryCache(0))
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()
	for i := 0; i < 2; i++ {
		if _, err := c2.Query("store texas", 8); err != nil {
			t.Fatal(err)
		}
	}
	if st, _ := c2.QueryCacheStats(); st.Capacity != 0 || st.Entries != 0 || st.Hits != 0 {
		t.Fatalf("disabled cache retained state: %+v", st)
	}

	for _, bad := range []Option{WithWorkers(-1), WithQueryCache(-1)} {
		if _, err := LoadString(xml, bad); err == nil {
			t.Fatal("negative serving option accepted")
		}
	}
}
