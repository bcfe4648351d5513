package serve_test

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"testing"

	"extract/internal/core"
	"extract/internal/gen"
	"extract/internal/search"
	"extract/internal/serve"
	"extract/internal/shard"
	"extract/xmltree"
)

// storesServer serves the stores fixture from two local shards with the
// default cache.
func storesServer(t *testing.T) *serve.Server {
	t.Helper()
	s := serve.New(shard.Build(gen.Stores(gen.StoresConfig{Retailers: 4, StoresPerRetailer: 4, ClothesPerStore: 3, Seed: 5}), 2))
	t.Cleanup(s.Close)
	return s
}

// identity ranks results in document order, scoring the i-th i.
func identity(rs []*search.Result) (*serve.Ranking, error) {
	rk := &serve.Ranking{Order: make([]int32, len(rs)), Scores: make([]float64, len(rs))}
	for i := range rs {
		rk.Order[i], rk.Scores[i] = int32(i), float64(i)
	}
	return rk, nil
}

// TestRankingIsKeptAndCharged: a cached entry keeps the first ranking
// computed for it and hands that one to every later ranked read without
// computing again; it is re-charged for it — 12 bytes a result — and the
// cache's byte gauge follows. A failed computation is returned to its
// caller and not kept: the entry's charge is unchanged and the next ranked
// read computes afresh.
func TestRankingIsKeptAndCharged(t *testing.T) {
	s := storesServer(t)
	ctx := context.Background()
	v, err := s.Do(ctx, "store", search.Options{DistinctAnchors: true}, 6)
	if err != nil || len(v.Results) < 2 {
		t.Fatalf("%v, %v", v, err)
	}
	cost, gauge := v.Cost(), s.Stats().Bytes

	failure := errors.New("no statistics")
	if _, err := v.Ranked(func([]*search.Result) (*serve.Ranking, error) { return nil, failure }); !errors.Is(err, failure) {
		t.Fatalf("a failed ranking returned %v", err)
	}
	if v.Cost() != cost || s.Stats().Bytes != gauge {
		t.Fatalf("a failed ranking moved the charge: %d -> %d, gauge %d -> %d", cost, v.Cost(), gauge, s.Stats().Bytes)
	}

	calls := 0
	count := func(rs []*search.Result) (*serve.Ranking, error) {
		calls++
		return identity(rs)
	}
	first, err := v.Ranked(count)
	if err != nil {
		t.Fatal(err)
	}
	grown := int64(12 * len(v.Results))
	if got := v.Cost() - cost; got != grown {
		t.Errorf("the ranking of %d results is charged %d bytes, want %d", len(v.Results), got, grown)
	}
	if got := s.Stats().Bytes - gauge; got != grown {
		t.Errorf("the cache's byte gauge grew %d bytes, want %d", got, grown)
	}
	for range 5 {
		again, err := v.Ranked(count)
		if err != nil || again != first {
			t.Fatalf("a later ranked read returned %p (%v), the first %p", again, err, first)
		}
	}
	if calls != 1 {
		t.Fatalf("the ranking was computed %d times, want once", calls)
	}
	if hit, _ := s.Do(ctx, "store", search.Options{DistinctAnchors: true}, 6); hit != v {
		t.Fatal("the query was not answered from the ranked entry")
	}
}

// TestFirstRankedReadsPublishOne: eight goroutines making the first ranked
// read of one cached entry at once all get the one ranking the entry keeps,
// and the entry is charged for it once. Run under -race in CI.
func TestFirstRankedReadsPublishOne(t *testing.T) {
	s := storesServer(t)
	v, err := s.Do(context.Background(), "store", search.Options{DistinctAnchors: true}, 6)
	if err != nil {
		t.Fatal(err)
	}
	cost, gauge := v.Cost(), s.Stats().Bytes
	const readers = 8
	got := make([]*serve.Ranking, readers)
	var computed atomic.Int32
	start := make(chan struct{})
	var wg sync.WaitGroup
	for i := range readers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			rk, err := v.Ranked(func(rs []*search.Result) (*serve.Ranking, error) {
				computed.Add(1)
				return identity(rs)
			})
			if err != nil {
				t.Error(err)
			}
			got[i] = rk
		}()
	}
	close(start)
	wg.Wait()
	for i, rk := range got {
		if rk != got[0] || rk == nil {
			t.Fatalf("reader %d got ranking %p, reader 0 %p (%d computed)", i, rk, got[0], computed.Load())
		}
	}
	grown := int64(12 * len(v.Results))
	if v.Cost()-cost != grown || s.Stats().Bytes-gauge != grown {
		t.Fatalf("charged %d bytes, gauge grew %d, want %d", v.Cost()-cost, s.Stats().Bytes-gauge, grown)
	}
}

// TestEntryChargesRenderedXML: the serving layer renders each snippet's XML
// once, into the entry, byte for byte the snippet tree serialized, and the
// entry's cost includes those bytes.
func TestEntryChargesRenderedXML(t *testing.T) {
	s := storesServer(t)
	v, err := s.Do(context.Background(), "store", search.Options{DistinctAnchors: true}, 6)
	if err != nil || len(v.Snippets) == 0 {
		t.Fatalf("%d snippets, %v", len(v.Snippets), err)
	}
	bare := make([]*core.Generated, len(v.Snippets))
	rendered := int64(0)
	for i, g := range v.Snippets {
		if want := xmltree.XMLString(g.Snippet.Root); g.XML != want || want == "" {
			t.Fatalf("snippet %d: XML %q, the tree renders %q", i, g.XML, want)
		}
		rendered += int64(len(g.XML))
		copied := *g
		copied.XML = ""
		bare[i] = &copied
	}
	without := (&serve.Cached{Results: v.Results, Snippets: bare}).Cost()
	if got := v.Cost() - without; got != rendered {
		t.Fatalf("the entry is charged %d bytes for %d bytes of snippet XML", got, rendered)
	}
}
