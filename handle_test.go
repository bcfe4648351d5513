package extract

import (
	"context"
	"errors"
	"slices"
	"sync"
	"testing"
	"time"

	"extract/internal/baseline"
	"extract/internal/faultinject"
	"extract/internal/gen"
	"extract/internal/ingest"
	"extract/internal/remote"
	"extract/internal/workload"
	"extract/xmltree"
)

// snapshotOf saves doc as an n-shard snapshot and returns the local corpus
// it was saved from.
func snapshotOf(t *testing.T, doc *xmltree.Document, n int, dir string) *Corpus {
	t.Helper()
	c, err := LoadString(xmltree.XMLString(doc.Root), WithShards(n), WithQueryCache(0))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)
	if err := c.SaveSnapshot(dir); err != nil {
		t.Fatal(err)
	}
	return c
}

// TestTreeReadAfterSwapIsClassified: a routed result's tree is read from the
// generation that answered the query. With one replica of each group moved
// to another generation, the read fails over to its peer and gets the
// answer's tree. With every replica and the router moved between the answer
// and the first XML(), every tree accessor returns ErrResultGone — wrapping
// the replicas' skew — and never a tree of the new generation; a new query
// reads the new generation's trees.
func TestTreeReadAfterSwapIsClassified(t *testing.T) {
	dirA, dirB := t.TempDir(), t.TempDir()
	localA := snapshotOf(t, gen.Stores(gen.StoresConfig{Retailers: 4, StoresPerRetailer: 3, ClothesPerStore: 5, Seed: 11}), 3, dirA)
	localB := snapshotOf(t, gen.Stores(gen.StoresConfig{Retailers: 4, StoresPerRetailer: 3, ClothesPerStore: 5, Seed: 12}), 3, dirB)
	const groups, q, bound = 2, "store", 6
	addrs, servers := startShardTier(t, dirA, groups, 2)
	rc, err := Connect(dirA, addrs, WithQueryCache(0))
	if err != nil {
		t.Fatal(err)
	}
	defer rc.Close()
	trees := func(c *Corpus) []string {
		t.Helper()
		hits, err := c.Query(q, bound)
		if err != nil || len(hits) == 0 {
			t.Fatalf("query: %d hits, %v", len(hits), err)
		}
		out := make([]string, len(hits))
		for i, h := range hits {
			if out[i], err = h.Result.XML(); err != nil {
				t.Fatalf("tree %d: %v", i, err)
			}
		}
		return out
	}
	wantA, wantB := trees(localA), trees(localB)
	if slices.Equal(wantA, wantB) {
		t.Fatal("fixture: the generations answer alike")
	}
	// swap moves the first `replicas` replicas of every group to dir's
	// generation.
	swap := func(dir string, replicas int) {
		t.Helper()
		next, err := ingest.Load(dir)
		if err != nil {
			t.Fatal(err)
		}
		for g := range addrs {
			for _, addr := range addrs[g][:replicas] {
				servers[addr].Swap(next, remote.WithOwnedShards(remote.OwnedShards(next.Source, g, groups)))
			}
		}
	}

	hits, err := rc.Query(q, bound)
	if err != nil {
		t.Fatal(err)
	}
	swap(dirB, 1)
	for i, h := range hits {
		if got, err := h.Result.XML(); err != nil || got != wantA[i] {
			t.Fatalf("tree %d with one replica a group moved: %v\n%s\nwant\n%s", i, err, got, wantA[i])
		}
	}

	swap(dirA, 1)
	if hits, err = rc.Query(q, bound); err != nil {
		t.Fatal(err)
	}
	swap(dirB, 2)
	if _, err := rc.ReloadSnapshot(dirB); err != nil {
		t.Fatal(err)
	}
	for i, h := range hits {
		xml, err := h.Result.XML()
		var re *remote.RemoteError
		if !errors.Is(err, ErrResultGone) || !errors.As(err, &re) || re.Kind != remote.ErrKindSkew {
			t.Fatalf("tree %d after the tier moved: %v (%d bytes), want ErrResultGone over a skew", i, err, len(xml))
		}
		if root, err := h.Result.Root(); root != nil || !errors.Is(err, ErrResultGone) {
			t.Fatalf("Root %d after the tier moved: %v", i, err)
		}
		if _, err := h.Result.Render(); !errors.Is(err, ErrResultGone) {
			t.Fatalf("Render %d after the tier moved: %v", i, err)
		}
		if r, err := h.Result.Internal(); r != nil || !errors.Is(err, ErrResultGone) {
			t.Fatalf("Internal %d after the tier moved: %v", i, err)
		}
		if s, err := rc.Snippet(h.Result, q, bound); s != nil || !errors.Is(err, ErrResultGone) {
			t.Fatalf("Snippet %d after the tier moved: %v", i, err)
		}
		if h.Result.Size() < 1 || h.Snippet.ResultKey() == "" {
			t.Fatalf("hit %d lost what arrived with it: size %d, key %q", i, h.Result.Size(), h.Snippet.ResultKey())
		}
	}
	if got := trees(rc); !slices.Equal(got, wantB) {
		t.Fatal("a query after the move does not read the new generation's trees")
	}
}

// TestRemoteSuggestMatchesLocal: a remote corpus's Suggest asks a shard
// server, which answers the local corpus's list — for every prefix and k,
// on a demo dataset and on a generated corpus, one shard or several.
func TestRemoteSuggestMatchesLocal(t *testing.T) {
	for name, mk := range map[string]func() *xmltree.Document{
		"retailers (Figure 1)": gen.Figure1Corpus,
		"stores": func() *xmltree.Document {
			return gen.Stores(gen.StoresConfig{Retailers: 4, StoresPerRetailer: 3, ClothesPerStore: 5, Seed: 11})
		},
	} {
		for _, n := range []int{1, 3} {
			dir := t.TempDir()
			local := snapshotOf(t, mk(), n, dir)
			addrs, _ := startShardTier(t, dir, 2, 1)
			rc, err := Connect(dir, addrs)
			if err != nil {
				t.Fatal(err)
			}
			suggested := 0
			for _, prefix := range []string{"", "s", "st", "te", "b", "h", "zz"} {
				for _, k := range []int{-1, 0, 1, 3, 12, 1000} {
					got, want := rc.Suggest(prefix, k), local.Suggest(prefix, k)
					if !slices.Equal(got, want) {
						t.Fatalf("%s, %d shards: Suggest(%q, %d) = %v, local %v", name, n, prefix, k, got, want)
					}
					suggested += len(got)
				}
			}
			rc.Close()
			if suggested == 0 {
				t.Fatalf("%s, %d shards: no suggestions at all", name, n)
			}
		}
	}
}

// TestPageTreeReadsHonorContextAndCharge: the demo page's path through a
// remote corpus — QueryContext, then RootContext on every hit. With every
// shard server stalled after the answer, RootContext returns the context's
// deadline error when the context ends. Once the tier recovers, the hits'
// trees arrive and their cached entry is charged for holding them.
func TestPageTreeReadsHonorContextAndCharge(t *testing.T) {
	dir := t.TempDir()
	local := snapshotOf(t, gen.Stores(gen.StoresConfig{Retailers: 4, StoresPerRetailer: 3, ClothesPerStore: 5, Seed: 13}), 3, dir)
	addrs, _ := startShardTier(t, dir, 2, 1)
	rc, err := Connect(dir, addrs)
	if err != nil {
		t.Fatal(err)
	}
	defer rc.Close()
	const q, bound = "store", 6
	hits, err := rc.QueryContext(context.Background(), q, bound)
	if err != nil || len(hits) == 0 {
		t.Fatalf("query: %d hits, %v", len(hits), err)
	}
	admitted, _ := rc.QueryCacheStats()

	stall := make(chan struct{})
	unstall := sync.OnceFunc(func() {
		close(stall)
		faultinject.Reset()
	})
	faultinject.SetTag(faultinject.RemoteServe, func(string) error {
		<-stall
		return nil
	})
	defer unstall()
	ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
	defer cancel()
	start := time.Now()
	if root, err := hits[0].Result.RootContext(ctx); root != nil || !errors.Is(err, context.DeadlineExceeded) || time.Since(start) > 5*time.Second {
		t.Fatalf("stalled read: %v after %v; want the context's deadline", err, time.Since(start))
	}
	unstall()

	want, err := local.Query(q, bound)
	if err != nil || len(want) != len(hits) {
		t.Fatalf("local query: %d hits, %v", len(want), err)
	}
	for i, h := range hits {
		root, err := h.Result.RootContext(context.Background())
		if err != nil || xmltree.XMLString(root) != must(want[i].Result.XML()) {
			t.Fatalf("tree %d after the tier recovered: %v", i, err)
		}
	}
	read, _ := rc.QueryCacheStats()
	if read.Entries != 1 || read.Bytes < admitted.Bytes+int64(100*hits[0].Result.Size()) {
		t.Fatalf("cache before the trees were read %+v, after %+v: the entry is not charged for them", admitted, read)
	}
}

// BenchmarkRoutedPage times a routed page with the query cache off, over two
// shard-server groups on loopback: the answer alone (what the facade's
// Query costs a caller that reads no tree), and the answer plus every hit's
// tree and text window (what extractd's search page does).
func BenchmarkRoutedPage(b *testing.B) {
	doc := gen.Stores(gen.StoresConfig{Retailers: 16, StoresPerRetailer: 10, ClothesPerStore: 55, Cities: 200, CategoryCount: 300, Skew: 1.1, Seed: 1})
	var pool []string
	seen := map[string]bool{}
	for _, q := range workload.Generate(doc, workload.Config{Queries: 400, Keywords: 2, Seed: 7}) {
		if !seen[q.Text()] {
			seen[q.Text()] = true
			pool = append(pool, q.Text())
		}
	}
	dir := b.TempDir()
	local, err := LoadString(xmltree.XMLString(doc.Root), WithShards(4), WithQueryCache(0))
	if err != nil {
		b.Fatal(err)
	}
	defer local.Close()
	if err := local.SaveSnapshot(dir); err != nil {
		b.Fatal(err)
	}
	addrs, _ := startShardTier(b, dir, 2, 1)
	rc, err := Connect(dir, addrs, WithQueryCache(0))
	if err != nil {
		b.Fatal(err)
	}
	defer rc.Close()
	ctx := context.Background()
	for _, readTrees := range []bool{false, true} {
		name := "no-tree"
		if readTrees {
			name = "every-tree"
		}
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				q := pool[i%len(pool)]
				hits, err := rc.QueryContext(ctx, q, 10, WithMaxResults(25))
				if err != nil || !readTrees {
					continue
				}
				for _, h := range hits {
					root, err := h.Result.RootContext(ctx)
					if err != nil {
						b.Fatal(err)
					}
					baseline.TextWindow(root, Tokenize(q), 16)
				}
			}
		})
	}
}
