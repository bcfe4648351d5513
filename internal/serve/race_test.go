package serve

import (
	"context"
	"sync"
	"testing"

	"extract/internal/gen"
	"extract/internal/search"
	"extract/internal/shard"
	"extract/internal/workload"
)

// TestConcurrentQueries exercises the pool, the cache and singleflight
// under concurrent identical and distinct queries (run with -race in CI's
// race job). Every goroutine's responses must match the single-threaded
// reference.
func TestConcurrentQueries(t *testing.T) {
	doc := gen.Stores(gen.StoresConfig{Retailers: 8, StoresPerRetailer: 3, ClothesPerStore: 5, Seed: 13})
	sc := shard.Build(doc, 4)
	srv := New(sc, WithWorkers(4))
	defer srv.Close()
	opts := search.Options{DistinctAnchors: true}

	doc2 := gen.Stores(gen.StoresConfig{Retailers: 8, StoresPerRetailer: 3, ClothesPerStore: 5, Seed: 13})
	var queries []string
	for _, q := range workload.Generate(doc2, workload.Config{Queries: 10, Keywords: 2, Seed: 19}) {
		queries = append(queries, q.Text())
	}

	want := make(map[string][]string)
	for _, q := range queries {
		w, err := uncachedHits(sc, q, opts, 10)
		if err != nil {
			t.Fatal(err)
		}
		want[q] = w
	}

	const goroutines = 16
	var wg sync.WaitGroup
	errs := make(chan error, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for round := 0; round < 5; round++ {
				// Half the goroutines hammer one identical query per round
				// (singleflight coalescing), the rest walk distinct ones.
				q := queries[round%len(queries)]
				if g%2 == 1 {
					q = queries[(g+round)%len(queries)]
				}
				rs, gs, err := srv.QueryContext(context.Background(), q, opts, 10)
				if err != nil {
					errs <- err
					return
				}
				got := renderHits(rs, gs)
				w := want[q]
				if len(got) != len(w) {
					t.Errorf("g%d q=%q: %d hits, want %d", g, q, len(got), len(w))
					return
				}
				for i := range w {
					if got[i] != w[i] {
						t.Errorf("g%d q=%q: hit %d differs", g, q, i)
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

// TestSingleflightComputesOnce pins the coalescing guarantee: any number
// of concurrent identical queries on a cold cache leads to exactly one
// computation per distinct key — every caller either leads a flight
// (counted as the key's one miss), joins it, or hits the entry it left
// behind.
func TestSingleflightComputesOnce(t *testing.T) {
	doc := gen.Stores(gen.StoresConfig{Retailers: 6, StoresPerRetailer: 3, ClothesPerStore: 5, Seed: 23})
	sc := shard.Build(doc, 3)
	srv := New(sc, WithWorkers(2))
	defer srv.Close()
	opts := search.Options{DistinctAnchors: true}

	doc2 := gen.Stores(gen.StoresConfig{Retailers: 6, StoresPerRetailer: 3, ClothesPerStore: 5, Seed: 23})
	qs := workload.Generate(doc2, workload.Config{Queries: 4, Keywords: 2, Seed: 3})
	if len(qs) == 0 {
		t.Fatal("no workload queries")
	}

	const perQuery = 12
	var wg sync.WaitGroup
	start := make(chan struct{})
	for _, q := range qs {
		for g := 0; g < perQuery; g++ {
			wg.Add(1)
			go func(q workload.Query) {
				defer wg.Done()
				<-start
				if _, _, err := srv.QueryContext(context.Background(), q.Text(), opts, 10); err != nil {
					t.Error(err)
				}
			}(q)
		}
	}
	close(start)
	wg.Wait()

	st := srv.Stats()
	if got, want := st.Misses, int64(len(qs)); got != want {
		t.Fatalf("misses = computations = %d, want exactly %d (one per distinct query); stats %+v",
			got, want, st)
	}
	if st.Hits+st.Coalesced != int64(len(qs))*(perQuery-1) {
		t.Fatalf("hits+coalesced = %d, want %d; stats %+v",
			st.Hits+st.Coalesced, int64(len(qs))*(perQuery-1), st)
	}
}

// TestPoolStoppedStillServes: queries after Close degrade to inline
// execution, not deadlock.
func TestPoolStoppedStillServes(t *testing.T) {
	sc := shard.Build(gen.Figure1Corpus(), 2)
	srv := New(sc)
	srv.Close()
	if _, _, err := srv.QueryContext(context.Background(), "retailer texas", search.Options{DistinctAnchors: true}, 8); err != nil {
		t.Fatal(err)
	}
}

// TestStaleFlightNotJoined: a caller arriving after an invalidation must
// not be coalesced onto a flight computing against the swapped-out corpus
// — it computes at its own epoch and gets fresh data.
func TestStaleFlightNotJoined(t *testing.T) {
	c := NewCache(16 << 10)
	key := testKey(1)

	oldVal, newVal := &Cached{}, &Cached{}
	started, release := make(chan struct{}), make(chan struct{})
	go func() {
		_, _, _ = c.do(context.Background(), key, func() (*Cached, error) {
			close(started)
			<-release
			return oldVal, nil
		})
	}()
	<-started
	c.clear() // the swap happens while the old flight computes

	v, _, err := c.do(context.Background(), key, func() (*Cached, error) { return newVal, nil })
	if err != nil {
		t.Fatal(err)
	}
	if v == oldVal {
		t.Fatal("post-swap caller was coalesced onto the pre-swap flight")
	}
	close(release)

	// The fresh value was cached at the new epoch; the stale leader must
	// not displace it.
	v2, _, err := c.do(context.Background(), key, func() (*Cached, error) {
		t.Error("recomputed despite fresh cache entry")
		return nil, nil
	})
	if err != nil || v2 != newVal {
		t.Fatalf("fresh entry lost: %v %v", v2, err)
	}
}
