package remote

import (
	"context"
	"errors"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"extract/internal/gen"
	"extract/internal/ingest"
	"extract/internal/search"
	"extract/internal/shard"
	"extract/internal/workload"
	"extract/xmltree"
)

// TestRouterReplacementRace hammers the router with concurrent queries
// while the tier flips between two snapshot generations — servers swap via
// Server.Swap, the router re-places via Reload, deliberately not atomically
// (they are separate processes in production). The linearizability property
// under re-placement: every successful answer is byte-identical to one of
// the two generations' local answers (the fingerprint echo forbids mixing
// shards across generations within one query, and a tree is fetched only from
// the generation that answered), and every failure — of the query or of a
// tree read — is a classified error. Run under -race in CI.
func TestRouterReplacementRace(t *testing.T) {
	mkA := func() *xmltree.Document { return gen.Movies(gen.MoviesConfig{Movies: 10, Seed: 5}) }
	mkB := func() *xmltree.Document { return gen.Movies(gen.MoviesConfig{Movies: 12, Seed: 9}) }
	scA, scB := shard.Build(mkA(), 3), shard.Build(mkB(), 3)
	srcA, srcB := ingest.SourceOf(scA), ingest.SourceOf(scB)
	genA := &ingest.Generation{Corpus: scA, Source: srcA}
	genB := &ingest.Generation{Corpus: scB, Source: srcB}
	if Fingerprint(srcA) == Fingerprint(srcB) {
		t.Fatal("generations must differ for the race to mean anything")
	}

	const groups = 2
	var servers []*Server
	var addrs [][]string
	for g := 0; g < groups; g++ {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatalf("listen: %v", err)
		}
		srv := NewServer(scA, WithOwnedShards(OwnedShards(srcA, g, groups)))
		go srv.Serve(ln)
		defer srv.Close()
		servers = append(servers, srv)
		addrs = append(addrs, []string{ln.Addr().String()})
	}
	rt, err := NewRouter(scA.Analysis(), srcA, addrs)
	if err != nil {
		t.Fatalf("NewRouter: %v", err)
	}
	defer rt.Close()

	opts := search.Options{DistinctAnchors: true}
	render := func(rs []*search.Result) (string, error) {
		var b strings.Builder
		for _, r := range rs {
			tree, err := r.Tree(context.Background())
			if err != nil {
				return "", err
			}
			b.WriteString(xmltree.XMLString(tree.Root))
			b.WriteByte('\n')
		}
		return b.String(), nil
	}
	// Queries drawn from both generations' vocabularies; per query, pin the
	// local answer under each generation (either may legitimately be empty).
	var queries []string
	for _, wq := range workload.Generate(mkA(), workload.Config{Queries: 3, Keywords: 2, Seed: 13}) {
		queries = append(queries, wq.Text())
	}
	for _, wq := range workload.Generate(mkB(), workload.Config{Queries: 3, Keywords: 2, Seed: 21}) {
		queries = append(queries, wq.Text())
	}
	wantA, wantB := map[string]string{}, map[string]string{}
	for _, q := range queries {
		ra, err := scA.Search(q, opts)
		if err != nil {
			t.Fatalf("baseline A %q: %v", q, err)
		}
		rb, err := scB.Search(q, opts)
		if err != nil {
			t.Fatalf("baseline B %q: %v", q, err)
		}
		wantA[q], _ = render(ra)
		wantB[q], _ = render(rb)
	}

	swapTo := func(next *ingest.Generation) {
		for g, srv := range servers {
			srv.Swap(next, WithOwnedShards(OwnedShards(next.Source, g, groups)))
		}
		rt.place.Store(rt.newPlacement(rt.place.Load().analysis, next.Source))
	}

	ctx := context.Background()
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			for i := 0; i < 60; i++ {
				q := queries[(id+i)%len(queries)]
				rs, err := rt.SearchEnginesContext(ctx, q, opts, nil, nil)
				var got string
				if err == nil {
					// A swap may land between the answer and its trees.
					got, err = render(rs)
				}
				if err != nil {
					var re *RemoteError
					if !errors.As(err, &re) && !errors.Is(err, search.ErrEmptyQuery) &&
						!errors.Is(err, context.Canceled) && !errors.Is(err, context.DeadlineExceeded) {
						t.Errorf("unclassified error during re-placement for %q: %v", q, err)
						return
					}
					continue
				}
				if got != wantA[q] && got != wantB[q] {
					t.Errorf("answer for %q matches neither generation:\n%s", q, got)
					return
				}
			}
		}(w)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 8; i++ {
			time.Sleep(time.Millisecond)
			if i%2 == 0 {
				swapTo(genB)
			} else {
				swapTo(genA)
			}
		}
	}()
	wg.Wait()

	// Settle on generation A and require exact convergence — the breakers
	// may need a beat after the skew storm.
	swapTo(genA)
	deadline := time.Now().Add(5 * time.Second)
	for _, q := range queries {
		for {
			rs, err := rt.SearchEnginesContext(ctx, q, opts, nil, nil)
			if err == nil {
				var got string
				if got, err = render(rs); err == nil && got == wantA[q] {
					break
				}
			}
			if time.Now().After(deadline) {
				t.Fatalf("query %q did not converge to generation A: %v", q, err)
			}
			time.Sleep(10 * time.Millisecond)
		}
	}
}
