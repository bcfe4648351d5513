package serve

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"extract/internal/core"
	"extract/internal/faultinject"
	"extract/internal/search"
	"extract/internal/shard"
	"extract/xmltree"
)

// failureFixture builds a sharded stores corpus, a server over it, and one
// query known to produce results, with its reference answer computed off
// the raw sharded engine.
func failureFixture(t *testing.T, opts ...Option) (*shard.Corpus, *Server, string, []string) {
	t.Helper()
	mk := testCorpora()["stores"]
	sc := shard.Build(mk(), 3)
	srv := New(sc, append([]Option{WithWorkers(2)}, opts...)...)
	t.Cleanup(srv.Close)
	for _, q := range corpusQueries(mk()) {
		want, err := uncachedHits(sc, q, search.Options{DistinctAnchors: true}, 10)
		if err == nil && len(want) > 0 {
			return sc, srv, q, want
		}
	}
	t.Fatal("no workload query produced results")
	return nil, nil, "", nil
}

// TestQueryDeadline: a server-imposed deadline turns a query that cannot
// finish in time into context.DeadlineExceeded — and the failure is never
// cached, so the same query answers correctly once the pressure is gone.
func TestQueryDeadline(t *testing.T) {
	defer faultinject.Reset()
	_, srv, q, _ := failureFixture(t, WithQueryTimeout(time.Nanosecond))

	// A nanosecond deadline has always expired by the first checkpoint.
	_, _, err := srv.QueryContext(context.Background(), q, search.Options{DistinctAnchors: true}, 10)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want context.DeadlineExceeded", err)
	}

	// A caller-supplied earlier context is honored the same way on the
	// Search path.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := srv.Do(ctx, q, search.Options{DistinctAnchors: true}, -1); !errors.Is(err, context.Canceled) {
		t.Fatalf("SearchContext(canceled) err = %v, want context.Canceled", err)
	}
}

// TestCanceledQueryNotCached: a cancellation outcome must not poison the
// cache — the same key re-queried with a live context computes the real
// answer.
func TestCanceledQueryNotCached(t *testing.T) {
	defer faultinject.Reset()
	_, srv, q, want := failureFixture(t)
	opts := search.Options{DistinctAnchors: true}

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, _, err := srv.QueryContext(ctx, q, opts, 10); !errors.Is(err, context.Canceled) {
		t.Fatalf("canceled query err = %v, want context.Canceled", err)
	}

	rs, gs, err := srv.QueryContext(context.Background(), q, opts, 10)
	if err != nil {
		t.Fatalf("query after cancellation: %v", err)
	}
	got := renderHits(rs, gs)
	if len(got) != len(want) {
		t.Fatalf("%d hits after cancellation, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("hit %d differs after cancellation\nwant %s\ngot  %s", i, want[i], got[i])
		}
	}
}

// blockingBackend wraps a real backend but parks every evaluation on a
// channel, holding its admission slot for as long as the test wants.
type blockingBackend struct {
	inner   Backend
	entered chan struct{}
	release chan struct{}
}

func (b *blockingBackend) Analysis() *core.Corpus { return b.inner.Analysis() }

func (b *blockingBackend) Answer(ctx context.Context, q search.Query, opts search.Options, run shard.Runner, bound int) ([]*search.Result, []*core.Generated, error) {
	b.entered <- struct{}{}
	<-b.release
	return b.inner.Answer(ctx, q, opts, run, bound)
}

// TestOverloadSheds: with WithMaxInFlight(1) a second concurrent query is
// rejected immediately with ErrOverloaded and counted in Stats().Shed,
// while the admitted query completes normally; once the slot frees, new
// queries are admitted again.
func TestOverloadSheds(t *testing.T) {
	mk := testCorpora()["stores"]
	sc := shard.Build(mk(), 3)
	bb := &blockingBackend{
		inner:   sc,
		entered: make(chan struct{}),
		release: make(chan struct{}),
	}
	srv := New(bb, WithWorkers(2), WithMaxInFlight(1))
	defer srv.Close()
	opts := search.Options{DistinctAnchors: true}

	firstErr := make(chan error, 1)
	go func() {
		_, err := srv.Do(context.Background(), "store", opts, -1)
		firstErr <- err
	}()
	<-bb.entered // the first query holds the only slot inside the backend

	if _, err := srv.Do(context.Background(), "retailer", opts, -1); !errors.Is(err, ErrOverloaded) {
		t.Fatalf("second query err = %v, want ErrOverloaded", err)
	}
	if st := srv.Stats(); st.Shed != 1 {
		t.Fatalf("Stats().Shed = %d, want 1", st.Shed)
	}

	close(bb.release)
	if err := <-firstErr; err != nil {
		t.Fatalf("admitted query failed: %v", err)
	}

	// Slot released: the server admits queries again (the second backend
	// call sails through the closed release channel).
	go func() { <-bb.entered }()
	if _, err := srv.Do(context.Background(), "retailer", opts, -1); err != nil {
		t.Fatalf("query after load dropped: %v", err)
	}
	if st := srv.Stats(); st.Shed != 1 {
		t.Fatalf("Stats().Shed after recovery = %d, want still 1", st.Shed)
	}
}

// TestPanicIsolation: a panicking shard fails its own query with a
// *shard.PanicError — counted in Stats().Panics, never cached, never
// crashing the process — and the same query answers correctly once the
// fault clears.
func TestPanicIsolation(t *testing.T) {
	defer faultinject.Reset()
	_, srv, q, want := failureFixture(t)
	opts := search.Options{DistinctAnchors: true}

	faultinject.Set(faultinject.ShardEval, func() error { panic("injected shard crash") })
	_, _, err := srv.QueryContext(context.Background(), q, opts, 10)
	var pe *shard.PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("err = %v, want *shard.PanicError", err)
	}
	if pe.Value != "injected shard crash" {
		t.Fatalf("PanicError.Value = %v", pe.Value)
	}
	if len(pe.Stack) == 0 {
		t.Fatal("PanicError carries no stack")
	}
	if st := srv.Stats(); st.Panics == 0 {
		t.Fatalf("Stats().Panics = 0 after a panicking query (%+v)", st)
	}

	// The panic outcome must not have been cached: the same key now
	// computes the correct answer.
	faultinject.Reset()
	rs, gs, err := srv.QueryContext(context.Background(), q, opts, 10)
	if err != nil {
		t.Fatalf("query after fault cleared: %v", err)
	}
	got := renderHits(rs, gs)
	if len(got) != len(want) {
		t.Fatalf("%d hits after panic, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("hit %d differs after panic\nwant %s\ngot  %s", i, want[i], got[i])
		}
	}
}

// TestSnippetFaultFailsCleanly: a failure injected into snippet generation
// fails the Query pipeline with that error while the Search path (which
// generates no snippets) keeps working; clearing the fault restores Query.
func TestSnippetFaultFailsCleanly(t *testing.T) {
	defer faultinject.Reset()
	_, srv, q, want := failureFixture(t)
	opts := search.Options{DistinctAnchors: true}

	sentinel := errors.New("injected snippet failure")
	faultinject.Set(faultinject.SnippetGen, func() error { return sentinel })

	if _, _, err := srv.QueryContext(context.Background(), q, opts, 10); !errors.Is(err, sentinel) {
		t.Fatalf("Query err = %v, want %v", err, sentinel)
	}
	if _, err := srv.Do(context.Background(), q, opts, -1); err != nil {
		t.Fatalf("Search with snippet fault installed: %v", err)
	}

	faultinject.Reset()
	rs, gs, err := srv.QueryContext(context.Background(), q, opts, 10)
	if err != nil {
		t.Fatalf("Query after fault cleared: %v", err)
	}
	if got := renderHits(rs, gs); len(got) != len(want) {
		t.Fatalf("%d hits after snippet fault, want %d", len(got), len(want))
	}
}

// deferredBackend answers every query with n deferred results of nodes
// nodes each, whose trees build from a one-element document.
type deferredBackend struct {
	inner    Backend
	n, nodes int
}

func (b *deferredBackend) Analysis() *core.Corpus { return b.inner.Analysis() }

func (b *deferredBackend) Answer(ctx context.Context, _ search.Query, opts search.Options, run shard.Runner, bound int) ([]*search.Result, []*core.Generated, error) {
	rs := search.Defer(&storeTrees{doc: xmltree.NewDocument(xmltree.Elem("store"))}, b.n, func(int) (int, int, []search.KeywordDepth) {
		return b.nodes, 64, nil
	})
	return rs, nil, nil
}

// storeTrees builds every deferred result's tree as a view of its
// one-element document.
type storeTrees struct {
	search.Batch
	doc *xmltree.Document
}

func (s *storeTrees) Trees(_ context.Context, missing []int, trees []*search.Result) error {
	for _, i := range missing {
		trees[i] = search.FromNode(s.doc, s.doc.Root)
	}
	return nil
}

// TestTreesRechargeTheCachedEntry: a cached entry of deferred results is
// admitted at what it holds before anyone reads a tree; Trees builds the
// trees and re-prices the entry for them, so the budget bounds built trees
// too — except that a read never evicts the entry it read: an entry whose
// trees alone outgrow its shard is charged the shard's whole budget, and
// the trees stay with its results. A second read builds nothing and
// charges nothing more.
func TestTreesRechargeTheCachedEntry(t *testing.T) {
	inner := shard.Build(testCorpora()["stores"](), 1)
	const n, nodes = 3, 1000
	ctx := context.Background()
	opts := search.Options{DistinctAnchors: true}
	for _, tc := range []struct {
		name     string
		budget   int64
		repriced bool
	}{
		{"fits", numCacheShards << 20, true},
		{"outgrows its shard", numCacheShards * 64 << 10, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s := New(&deferredBackend{inner: inner, n: n, nodes: nodes}, WithCacheBytes(tc.budget))
			defer s.Close()
			v, err := s.Do(ctx, "store", opts, -1)
			if err != nil {
				t.Fatal(err)
			}
			admitted := s.Stats().Bytes
			if st := s.Stats(); st.Entries != 1 || admitted > n*nodes {
				t.Fatalf("deferred entry admitted as %+v", st)
			}
			for range 2 {
				if _, err := v.Trees(ctx); err != nil {
					t.Fatal(err)
				}
				st := s.Stats()
				if !tc.repriced {
					if st.Entries != 1 || st.Bytes != tc.budget/numCacheShards || st.Evictions != 0 {
						t.Fatalf("entry whose trees outgrow its shard: %+v, admitted at %d", st, admitted)
					}
					continue
				}
				if want := v.cost() + int64(len(v.key)); st.Entries != 1 || st.Bytes != want || want < n*nodes*100 {
					t.Fatalf("entry with built trees: %+v, its cost %d", st, want)
				}
			}
		})
	}
}

// TestOverBudgetTreesStayBounded: entries whose trees each outgrow their
// cache shard cannot pile up outside the budget. Each one a read re-prices
// is charged its shard's whole budget and displaces the shard's other
// entries and the entry charged so before it, in whichever shard, so after
// every entry's trees are read — by eight readers at once — the whole cache
// holds one entry, charged no more than its shard's budget.
func TestOverBudgetTreesStayBounded(t *testing.T) {
	inner := shard.Build(testCorpora()["stores"](), 1)
	const budget, readers = numCacheShards * 64 << 10, 8
	s := New(&deferredBackend{inner: inner, n: 3, nodes: 1000}, WithCacheBytes(budget))
	defer s.Close()
	ctx := context.Background()
	opts := search.Options{DistinctAnchors: true}
	var wg sync.WaitGroup
	for r := range readers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := r; i < 4*numCacheShards; i += readers {
				v, err := s.Do(ctx, fmt.Sprintf("store w%d", i), opts, -1)
				if err == nil {
					_, err = v.Trees(ctx)
				}
				if err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
	st := s.Stats()
	if st.Entries > 1 || st.Bytes > budget/numCacheShards {
		t.Fatalf("%+v: want at most one entry in the whole cache, within its shard's budget", st)
	}
	over := 0
	for i := range s.cache.shards {
		sh := &s.cache.shards[i]
		for e := sh.head; e != nil; e = e.next {
			if held := e.val.cost() + int64(len(e.key)); held > sh.maxBytes {
				over++
			}
		}
	}
	if over > 1 {
		t.Fatalf("the cache holds %d entries whose trees outgrow their shard; want at most one", over)
	}
}

// TestRechargeEvictsOthers: when building an entry's trees takes its shard
// over budget, recharge evicts the shard's other least-recently-used entries
// until it fits — never the entry it re-priced, although that one is the
// least recently used here.
func TestRechargeEvictsOthers(t *testing.T) {
	inner := shard.Build(testCorpora()["stores"](), 1)
	// Two entries of one cache shard, each of whose trees takes about 70 %
	// of the shard's budget.
	s := New(&deferredBackend{inner: inner, n: 3, nodes: 1800}, WithCacheBytes(numCacheShards<<20))
	defer s.Close()
	ctx := context.Background()
	opts := search.Options{DistinctAnchors: true}
	var qs []string
	for i := 0; len(qs) < 2; i++ {
		q := fmt.Sprintf("store w%d", i)
		if len(qs) == 0 || s.cache.shardFor(cacheKey(search.Parse(q), opts, -1)) == s.cache.shardFor(cacheKey(search.Parse(qs[0]), opts, -1)) {
			qs = append(qs, q)
		}
	}
	var vs []*Cached
	for _, q := range append(qs, qs[0]) { // the last lookup, a hit, leaves qs[1] least recently used
		v, err := s.Do(ctx, q, opts, -1)
		if err != nil {
			t.Fatal(err)
		}
		vs = append(vs, v)
	}
	for _, v := range vs[:2] {
		if _, err := v.Trees(ctx); err != nil {
			t.Fatal(err)
		}
	}
	st := s.Stats()
	want := vs[1].cost() + int64(len(vs[1].key))
	if st.Entries != 1 || st.Evictions != 1 || st.Bytes != want {
		t.Fatalf("after both trees: %+v; want only %q, at %d bytes", st, qs[1], want)
	}
	if _, err := s.Do(ctx, qs[1], opts, -1); err != nil || s.Stats().Hits != st.Hits+1 {
		t.Fatalf("the re-priced entry was not kept: %+v, err %v", s.Stats(), err)
	}
}
