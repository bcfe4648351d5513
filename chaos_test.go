package extract

import (
	"context"
	"errors"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"extract/internal/faultinject"
	"extract/internal/gen"
	"extract/internal/persist"
	"extract/internal/shard"
	"extract/internal/workload"
	"extract/xmltree"
)

// renderChaosHits flattens a Query response to comparable bytes.
func renderChaosHits(hits []*Hit) string {
	var b strings.Builder
	for _, h := range hits {
		b.WriteString(must(h.Result.XML()))
		b.WriteString(h.Snippet.Inline())
	}
	return b.String()
}

// chaosClean reports whether err is one of the failure shapes chaos is
// allowed to surface: an injected fault, a recovered panic, or a context
// outcome. Anything else — and any wrong answer — is a bug.
func chaosClean(err error, injected ...error) bool {
	var pe *shard.PanicError
	if errors.As(err, &pe) {
		return true
	}
	if errors.Is(err, context.DeadlineExceeded) || errors.Is(err, context.Canceled) {
		return true
	}
	for _, e := range injected {
		if errors.Is(err, e) {
			return true
		}
	}
	return false
}

// TestChaosFaultsNeverCorruptAnswers is the failure-domain property test:
// under concurrent query load with faults injected into shard evaluation
// (panics, errors, slow shards), snippet generation, and the reload
// source, every query either returns the byte-exact fault-free answer or
// one of the clean, classified errors — never a wrong answer, a deadlock,
// or a process crash. Once the faults clear, every pinned query answers
// byte-identically to the pre-chaos baseline. Run under -race in CI.
func TestChaosFaultsNeverCorruptAnswers(t *testing.T) {
	defer faultinject.Reset()
	doc := gen.Stores(gen.StoresConfig{Retailers: 5, StoresPerRetailer: 3, ClothesPerStore: 4, Seed: 77})
	xml := xmltree.XMLString(doc.Root)
	// The cache is disabled so every query evaluates and keeps walking
	// through the fault points; the error-never-cached property has its own
	// tests in internal/serve.
	c, err := LoadString(xml, WithShards(4), WithWorkers(3), WithQueryCache(0))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	// Pin fault-free baselines for a handful of queries with results.
	const bound = 8
	var queries []string
	want := map[string]string{}
	for _, wq := range workload.Generate(doc, workload.Config{Queries: 12, Keywords: 2, Seed: 7}) {
		q := wq.Text()
		hits, err := c.Query(q, bound)
		if err != nil || len(hits) == 0 {
			continue
		}
		queries = append(queries, q)
		want[q] = renderChaosHits(hits)
		if len(queries) == 4 {
			break
		}
	}
	if len(queries) < 2 {
		t.Fatalf("only %d workload queries produced results", len(queries))
	}

	// A snapshot of the same content, for the corrupt-image arm below.
	snapDir := t.TempDir()
	if err := c.SaveSnapshot(snapDir); err != nil {
		t.Fatal(err)
	}

	// Install the faults: a shared tick drives deterministic-rate panics,
	// errors, and stalls across every hook point.
	var tick atomic.Uint64
	shardErr := errors.New("chaos: injected shard failure")
	snipErr := errors.New("chaos: injected snippet failure")
	reloadErr := errors.New("chaos: injected reload failure")
	faultinject.Set(faultinject.ShardEval, func() error {
		switch n := tick.Add(1); {
		case n%31 == 0:
			panic("chaos: injected shard panic")
		case n%17 == 0:
			return shardErr
		case n%11 == 0:
			time.Sleep(200 * time.Microsecond)
		}
		return nil
	})
	faultinject.Set(faultinject.SnippetGen, func() error {
		if tick.Add(1)%23 == 0 {
			return snipErr
		}
		return nil
	})
	faultinject.Set(faultinject.ReloadSource, func() error {
		if tick.Add(1)%2 == 0 {
			return reloadErr
		}
		return nil
	})
	// Every other decoded image gets one body byte flipped (a copy — the
	// original may be a read-only mapping); the section checksums must
	// catch it before any structure is built.
	faultinject.SetMutator(faultinject.ImageBytes, func(data []byte) []byte {
		if len(data) < 64 || tick.Add(1)%2 == 0 {
			return data
		}
		mut := append([]byte(nil), data...)
		mut[len(mut)/2] ^= 0x40
		return mut
	})

	const workers, iters = 6, 40
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				q := queries[(id+i)%len(queries)]
				ctx := context.Background()
				cancel := context.CancelFunc(func() {})
				if id == 0 && i%4 == 3 {
					// One worker mixes in already-tight deadlines.
					ctx, cancel = context.WithTimeout(ctx, 50*time.Microsecond)
				}
				hits, err := c.QueryContext(ctx, q, bound)
				cancel()
				switch {
				case err != nil:
					if !chaosClean(err, shardErr, snipErr) {
						t.Errorf("unclassified error under chaos for %q: %v", q, err)
						return
					}
				case renderChaosHits(hits) != want[q]:
					t.Errorf("wrong answer under chaos for %q", q)
					return
				}
			}
		}(w)
	}
	// A reloader hammers the refresh path with the same source; the
	// injected source fault must fail it cleanly, leaving the old
	// generation serving, and a successful reload of identical content
	// must not perturb answers.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 15; i++ {
			if _, err := c.ReloadDelta(strings.NewReader(xml), WithShards(4)); err != nil && !errors.Is(err, reloadErr) {
				t.Errorf("unclassified reload error under chaos: %v", err)
				return
			}
		}
	}()
	// A snapshot loader decodes images whose bytes the mutator is
	// corrupting: each load must either fail as ErrBadFormat (the section
	// checksums caught the flip) or produce a corpus that answers the
	// pinned query byte-identically — never a silently wrong corpus.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 8; i++ {
			sc, err := LoadSnapshot(snapDir)
			if err != nil {
				if !errors.Is(err, persist.ErrBadFormat) && !errors.Is(err, reloadErr) {
					t.Errorf("unclassified snapshot-load error under chaos: %v", err)
					return
				}
				continue
			}
			hits, err := sc.Query(queries[0], bound)
			switch {
			case err != nil:
				if !chaosClean(err, shardErr, snipErr) {
					t.Errorf("unclassified snapshot query error under chaos: %v", err)
					sc.Close()
					return
				}
			case renderChaosHits(hits) != want[queries[0]]:
				t.Errorf("snapshot corpus answered wrongly under corrupt-image chaos")
				sc.Close()
				return
			}
			sc.Close()
		}
	}()
	wg.Wait()

	// Faults gone: every pinned query must answer byte-identically again.
	faultinject.Reset()
	for _, q := range queries {
		hits, err := c.Query(q, bound)
		if err != nil {
			t.Fatalf("query %q after chaos: %v", q, err)
		}
		if renderChaosHits(hits) != want[q] {
			t.Fatalf("query %q drifted after chaos", q)
		}
	}
}

// TestCloseRacesQueriesAndReloads: Corpus.Close racing in-flight queries
// and delta reloads must be safe — queries keep succeeding (evaluation
// falls back inline once the pool stops), reloads keep succeeding, Close
// is idempotent, and a closed corpus still answers.
func TestCloseRacesQueriesAndReloads(t *testing.T) {
	doc := gen.Stores(gen.StoresConfig{Retailers: 4, StoresPerRetailer: 2, ClothesPerStore: 3, Seed: 31})
	xml := xmltree.XMLString(doc.Root)
	c, err := LoadString(xml, WithShards(3), WithWorkers(2))
	if err != nil {
		t.Fatal(err)
	}

	var wg sync.WaitGroup
	start := make(chan struct{})
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			for i := 0; i < 25; i++ {
				if _, err := c.Query("store", 6); err != nil {
					t.Errorf("query racing Close: %v", err)
					return
				}
			}
		}()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		<-start
		for i := 0; i < 6; i++ {
			if _, err := c.ReloadDelta(strings.NewReader(xml), WithShards(3)); err != nil {
				t.Errorf("reload racing Close: %v", err)
				return
			}
		}
	}()
	wg.Add(1)
	go func() {
		defer wg.Done()
		<-start
		c.Close()
	}()
	close(start)
	wg.Wait()

	c.Close() // idempotent
	if _, err := c.Query("store texas", 6); err != nil {
		t.Fatalf("closed corpus stopped answering: %v", err)
	}
}
