package extract

import (
	"context"
	"fmt"
	"slices"
	"sync"
	"testing"

	"extract/internal/gen"
	"extract/xmltree"
)

// TestRoutedSnippetsDecodeOnRead: a router keeps each snippet as the wire
// record it arrived in and decodes its tree and IList the first time
// something reads them. For every routed hit, ranked and unranked, at 1 and
// 4 shards: XML, Edges and ResultKey answer without decoding; every Snippet
// accessor then answers what the local corpus's does; eight goroutines
// racing the first Root and IList reads all see the one snippet a single
// decode made (the test runs under -race in CI); and the hit, held
// throughout, never changes. With the query cache on, the first decode
// re-charges the entry it belongs to.
func TestRoutedSnippetsDecodeOnRead(t *testing.T) {
	doc := gen.Stores(gen.StoresConfig{Retailers: 4, StoresPerRetailer: 3, ClothesPerStore: 5, Seed: 11})
	xml := xmltree.XMLString(doc.Root)
	queries := []string{"store texas", "retailer", "clothes man", "houston", "stores"}
	ctx := context.Background()
	decoded := 0
	for _, shards := range []int{1, 4} {
		local, err := LoadString(xml, WithShards(shards), WithQueryCache(0))
		if err != nil {
			t.Fatal(err)
		}
		dir := t.TempDir()
		if err := local.SaveSnapshot(dir); err != nil {
			t.Fatal(err)
		}
		addrs, _ := startShardTier(t, dir, 2, 1)
		routed, err := Connect(dir, addrs, WithQueryCache(0))
		if err != nil {
			t.Fatal(err)
		}
		for _, q := range queries {
			for _, opts := range [][]SearchOption{nil, {WithRanking()}} {
				label := fmt.Sprintf("%d shards/%q ranked=%v", shards, q, opts != nil)
				want, err := local.QueryContext(ctx, q, 6, opts...)
				if err != nil {
					t.Fatal(err)
				}
				got, err := routed.QueryContext(ctx, q, 6, opts...)
				if err != nil {
					t.Fatal(err)
				}
				if len(got) != len(want) {
					t.Fatalf("%s: %d hits, want %d", label, len(got), len(want))
				}
				for i, h := range got {
					label := fmt.Sprintf("%s hit %d", label, i)
					s := h.Snippet
					held := heldHit{h, must(h.Result.XML()), s.XML(), s.ResultKey()}
					if s.Edges() != want[i].Snippet.Edges() || held.snippet != want[i].Snippet.XML() || held.key != want[i].Snippet.ResultKey() {
						t.Fatalf("%s: edges/XML/key differ from the local hit's", label)
					}
					if pending, _ := s.g.Encoded(); !pending {
						t.Fatalf("%s: XML, Edges and ResultKey decoded the snippet", label)
					}
					raceFirstRead(t, label, s)
					sameSnippetAccessors(t, label, want[i].Snippet, s)
					held.check(t, label)
					decoded++
				}
			}
		}
		routed.Close()
		local.Close()
	}
	t.Logf("%d routed hits decoded on read", decoded)
	if decoded < 20 {
		t.Fatalf("only %d routed hits decoded", decoded)
	}

	// With the cache on, the first decode re-charges the entry.
	_, routed := connectStores(t)
	hits, err := routed.Query("store texas", 6)
	if err != nil || len(hits) == 0 {
		t.Fatalf("%d hits, %v", len(hits), err)
	}
	before := routed.server().Stats().Bytes
	for _, h := range hits {
		h.Snippet.Root()
	}
	if after := routed.server().Stats().Bytes; after <= before {
		t.Fatalf("decoding %d snippets left the entry charged %d bytes, was %d", len(hits), after, before)
	}
}

// raceFirstRead has eight goroutines make the first reads of s's tree and
// IList at once, and fails unless every one saw the same decoded snippet.
func raceFirstRead(t *testing.T, label string, s *Snippet) {
	t.Helper()
	const readers = 8
	roots := make([]*xmltree.Node, readers)
	lists := make([][]string, readers)
	internals := make([]any, readers)
	var start, done sync.WaitGroup
	start.Add(1)
	for r := range readers {
		done.Add(1)
		go func() {
			defer done.Done()
			start.Wait()
			if r%2 == 0 {
				roots[r], lists[r] = s.Root(), s.IList()
			} else {
				lists[r], roots[r] = s.IList(), s.Root()
			}
			internals[r] = s.Internal()
		}()
	}
	start.Done()
	done.Wait()
	if pending, _ := s.g.Encoded(); pending {
		t.Fatalf("%s: read but still encoded", label)
	}
	for r := 1; r < readers; r++ {
		if roots[r] != roots[0] || internals[r] != internals[0] || !slices.Equal(lists[r], lists[0]) {
			t.Fatalf("%s: concurrent first reads saw different snippets", label)
		}
	}
	if internals[0] == any(s.g) {
		t.Fatalf("%s: the decoded snippet is the held one", label)
	}
}

// sameSnippetAccessors fails unless every accessor of got answers what
// want's does.
func sameSnippetAccessors(t *testing.T, label string, want, got *Snippet) {
	t.Helper()
	for _, a := range []struct {
		name      string
		want, got any
	}{
		{"Root", xmltree.XMLString(want.Root()), xmltree.XMLString(got.Root())},
		{"Render", want.Render(), got.Render()},
		{"Inline", want.Inline(), got.Inline()},
		{"XML", want.XML(), got.XML()},
		{"HTML", want.HTML(), got.HTML()},
		{"IList", fmt.Sprint(want.IList()), fmt.Sprint(got.IList())},
		{"Covered", fmt.Sprint(want.Covered()), fmt.Sprint(got.Covered())},
		{"Skipped", fmt.Sprint(want.Skipped()), fmt.Sprint(got.Skipped())},
		{"Coverage", want.Coverage(), got.Coverage()},
		{"Edges", want.Edges(), got.Edges()},
		{"ResultKey", want.ResultKey(), got.ResultKey()},
		{"ReturnEntities", fmt.Sprint(want.ReturnEntities()), fmt.Sprint(got.ReturnEntities())},
		{"Internal", fmt.Sprint(want.Internal().Snippet.Edges, want.Internal().IList.KeyAttr, want.Internal().Bound, want.Internal().Keywords),
			fmt.Sprint(got.Internal().Snippet.Edges, got.Internal().IList.KeyAttr, got.Internal().Bound, got.Internal().Keywords)},
	} {
		if a.want != a.got {
			t.Fatalf("%s: %s = %v, want %v", label, a.name, a.got, a.want)
		}
	}
}

// TestLocalSnippetsDecodeOnRead: a local corpus keeps each snippet of a
// query as its snippet record, as a router does, and decodes its tree and
// IList the first time something reads them. For every local hit, ranked and
// unranked, at 1 and 4 shards: XML, Edges and ResultKey answer without
// decoding and equal what the inspection path (Corpus.Snippet) makes of the
// hit's result; eight goroutines racing the first Root and IList reads all
// see the one snippet a single decode made (the test runs under -race in
// CI); every Snippet accessor then answers what the inspection path's does;
// and the hit, held throughout, never changes. With the query cache on, the
// first decode re-charges the entry it belongs to.
func TestLocalSnippetsDecodeOnRead(t *testing.T) {
	doc := gen.Stores(gen.StoresConfig{Retailers: 4, StoresPerRetailer: 3, ClothesPerStore: 5, Seed: 11})
	xml := xmltree.XMLString(doc.Root)
	queries := []string{"store texas", "retailer", "clothes man", "houston", "stores"}
	ctx := context.Background()
	decoded := 0
	for _, shards := range []int{1, 4} {
		local, err := LoadString(xml, WithShards(shards), WithQueryCache(0))
		if err != nil {
			t.Fatal(err)
		}
		for _, q := range queries {
			for _, opts := range [][]SearchOption{nil, {WithRanking()}} {
				label := fmt.Sprintf("%d shards/%q ranked=%v", shards, q, opts != nil)
				hits, err := local.QueryContext(ctx, q, 6, opts...)
				if err != nil {
					t.Fatal(err)
				}
				for i, h := range hits {
					label := fmt.Sprintf("%s hit %d", label, i)
					s := h.Snippet
					held := heldHit{h, must(h.Result.XML()), s.XML(), s.ResultKey()}
					edges := s.Edges()
					if pending, _ := s.g.Encoded(); !pending {
						t.Fatalf("%s: XML, Edges and ResultKey decoded the snippet", label)
					}
					want := must(local.Snippet(h.Result, q, 6))
					if edges != want.Edges() || held.snippet != want.XML() || held.key != want.ResultKey() {
						t.Fatalf("%s: edges/XML/key differ from the inspection path's", label)
					}
					if pending, _ := s.g.Encoded(); !pending {
						t.Fatalf("%s: the inspection path decoded the served snippet", label)
					}
					raceFirstRead(t, label, s)
					sameSnippetAccessors(t, label, want, s)
					held.check(t, label)
					decoded++
				}
			}
		}
		local.Close()
	}
	t.Logf("%d local hits decoded on read", decoded)
	if decoded < 20 {
		t.Fatalf("only %d local hits decoded", decoded)
	}

	// With the cache on, the first decode re-charges the entry.
	local, err := LoadString(xml, WithShards(3))
	if err != nil {
		t.Fatal(err)
	}
	defer local.Close()
	hits, err := local.Query("store texas", 6)
	if err != nil || len(hits) == 0 {
		t.Fatalf("%d hits, %v", len(hits), err)
	}
	before := local.server().Stats().Bytes
	for _, h := range hits {
		h.Snippet.Root()
	}
	if after := local.server().Stats().Bytes; after <= before {
		t.Fatalf("decoding %d snippets left the entry charged %d bytes, was %d", len(hits), after, before)
	}
}
