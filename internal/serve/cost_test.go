package serve_test

import (
	"context"
	"net"
	"runtime"
	"testing"

	"extract/internal/core"
	"extract/internal/gen"
	"extract/internal/ingest"
	"extract/internal/remote"
	"extract/internal/search"
	"extract/internal/serve"
	"extract/internal/shard"
)

// TestCostChargesWhatAnEntryOwns: a view result points at corpus nodes the
// entry's backend already pins, so the entry's cost does not grow with the
// result's subtree; the same answer as trimmed projections owns its trees
// and pays for them; and the feature statistics — sized by the result, read
// by nothing downstream — are not kept. Through the distributed tier the
// answer is deferred results, each holding its handle and match depths until
// a reader fetches its tree: charged those bytes — more than a view, far less
// than a built tree — and the entry's charge stays in line with the heap it
// really retains, before and after a reader builds its trees.
func TestCostChargesWhatAnEntryOwns(t *testing.T) {
	stores := func() *shard.Corpus {
		return shard.Build(gen.Stores(gen.StoresConfig{Retailers: 6, StoresPerRetailer: 3, ClothesPerStore: 5, Seed: 21}), 2)
	}
	s := serve.New(stores(), serve.WithCacheBytes(0))
	defer s.Close()
	ctx := context.Background()
	entryOn := func(s *serve.Server, query string, mode search.ConstructionMode) *serve.Cached {
		v, err := s.Do(ctx, query, search.Options{DistinctAnchors: true, Mode: mode}, 6)
		if err != nil || len(v.Results) == 0 {
			t.Fatalf("%q: %v", query, err)
		}
		return v
	}
	entry := func(query string, mode search.ConstructionMode) *serve.Cached { return entryOn(s, query, mode) }
	// One retailer-sized result against one clothes-sized result.
	big, small := entry("retailer", search.ModeSubtree), entry("clothes", search.ModeSubtree)
	perResult := func(v *serve.Cached) int64 {
		own := v.Cost()
		for _, g := range v.Snippets {
			own -= (&serve.Cached{Snippets: []*core.Generated{g}}).Cost() - (&serve.Cached{}).Cost()
		}
		return (own - (&serve.Cached{}).Cost()) / int64(len(v.Results))
	}
	if big.Results[0].Size() < 10*small.Results[0].Size() {
		t.Fatalf("result sizes %d and %d: want an order of magnitude apart", big.Results[0].Size(), small.Results[0].Size())
	}
	if b, sm := perResult(big), perResult(small); b != sm {
		t.Errorf("a view of %d edges is charged %d bytes, a view of %d edges %d",
			big.Results[0].Size(), b, small.Results[0].Size(), sm)
	}
	trimmed := entry("retailer", search.ModeXSeek)
	if tr, v := perResult(trimmed), perResult(big); tr < v+100*int64(trimmed.Results[0].Size()) {
		t.Errorf("an owned tree of %d edges is charged %d bytes, a view %d", trimmed.Results[0].Size(), tr, v)
	}

	// The same answer through the distributed tier.
	sc := stores()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := remote.NewServer(sc)
	go srv.Serve(ln)
	defer srv.Close()
	rt, err := remote.NewRouter(sc.Analysis(), ingest.SourceOf(sc), [][]string{{ln.Addr().String()}})
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()
	routed := serve.New(rt, serve.WithCacheBytes(0))
	defer routed.Close()
	// Connections, buffers and engines settle. Twice, a collection apart: what
	// the first exchange leaves in sync.Pools would otherwise be freed between
	// the two readings below and read as 30-50 KB the entry does not retain.
	for i := 0; i < 2; i++ {
		entryOn(routed, "retailer", search.ModeSubtree)
		runtime.GC()
	}
	// Two collections on each side of the reading: a sync.Pool keeps what was
	// put in it through one (the frame pool's payloads among it), so the
	// readings see the pools empty either way.
	var before, after runtime.MemStats
	runtime.GC()
	runtime.GC()
	runtime.ReadMemStats(&before)
	deferred := entryOn(routed, "retailer", search.ModeSubtree)
	runtime.GC()
	runtime.GC()
	runtime.ReadMemStats(&after)
	r := deferred.Results[0]
	if _, ok := r.Retained(); !ok || r.IsView() || r.Size() != big.Results[0].Size() {
		t.Fatalf("routed result: deferred %v, view %v, %d edges; local %d edges", ok, r.IsView(), r.Size(), big.Results[0].Size())
	}
	d, v := perResult(deferred), perResult(big)
	if d <= v || d >= v+100*int64(r.Size()) {
		t.Errorf("a deferred result of %d edges is charged %d bytes, a view %d, a built tree at least %d",
			r.Size(), d, v, v+100*int64(r.Size()))
	}
	retained := int64(after.HeapAlloc) - int64(before.HeapAlloc)
	if charged := deferred.Cost(); charged < retained*6/10 || charged > retained*12/10 {
		t.Errorf("a %d-result deferred entry is charged %d bytes and retains %d", len(deferred.Results), charged, retained)
	}
	runtime.KeepAlive(deferred)

	// A reader builds the trees: the entry now holds them, and is charged as
	// the owned trees they are — still in line with the heap it retains.
	trees, err := deferred.Trees(ctx)
	if err != nil {
		t.Fatal(err)
	}
	runtime.GC()
	runtime.GC()
	runtime.ReadMemStats(&after)
	if tree := trees[0]; tree.Size() != r.Size() || tree.IsView() {
		t.Fatalf("built tree: %d edges, view %v; deferred %d edges", tree.Size(), tree.IsView(), r.Size())
	}
	if _, ok := r.Retained(); ok {
		t.Fatal("a result whose tree was built still claims to be deferred")
	}
	retained = int64(after.HeapAlloc) - int64(before.HeapAlloc)
	if charged := deferred.Cost(); charged < retained*6/10 || charged > retained*15/10 {
		t.Errorf("a %d-result entry with its trees built is charged %d bytes and retains %d", len(deferred.Results), charged, retained)
	}
	runtime.KeepAlive(deferred)
	runtime.KeepAlive(trees)
}
