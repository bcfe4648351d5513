package extract

import (
	"errors"
	"net"
	"slices"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"extract/internal/faultinject"
	"extract/internal/gen"
	"extract/internal/ingest"
	"extract/internal/remote"
	"extract/internal/workload"
	"extract/xmltree"
)

// startShardTier serves the snapshot at dir from groups×replicas shard
// servers on loopback listeners — each server loads its own mapping of the
// snapshot, exactly like separate extractd -shard-server processes — and
// returns the address matrix (addrs[g] are the replicas of group g) plus
// the servers keyed by their address, so chaos tests can kill one.
func startShardTier(t testing.TB, dir string, groups, replicas int) ([][]string, map[string]*remote.Server) {
	t.Helper()
	addrs := make([][]string, groups)
	servers := map[string]*remote.Server{}
	for g := 0; g < groups; g++ {
		for r := 0; r < replicas; r++ {
			loaded, err := ingest.Load(dir)
			if err != nil {
				t.Fatalf("ingest.Load: %v", err)
			}
			ln, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				t.Fatalf("listen: %v", err)
			}
			addr := ln.Addr().String()
			srv := remote.NewServer(loaded.Corpus,
				remote.WithOwnedShards(remote.OwnedShards(loaded.Source, g, groups)),
				remote.WithServerTag(addr))
			go srv.Serve(ln)
			t.Cleanup(srv.Close)
			addrs[g] = append(addrs[g], addr)
			servers[addr] = srv
		}
	}
	return addrs, servers
}

// TestConnectMatchesLocal pins the facade's remote mode to its local mode:
// a corpus opened with Connect against a live shard tier answers Query —
// results, snippets, and ranked order — byte-identical to the local corpus
// the snapshot was saved from, across the full option mix; local-only
// operations are rejected with ErrRemoteCorpus; Suggest answers as the local
// corpus does; and ReloadSnapshot works against the same generation.
func TestConnectMatchesLocal(t *testing.T) {
	doc := gen.Stores(gen.StoresConfig{Retailers: 4, StoresPerRetailer: 3, ClothesPerStore: 5, Seed: 11})
	xml := xmltree.XMLString(doc.Root)
	local, err := LoadString(xml, WithShards(3), WithQueryCache(0))
	if err != nil {
		t.Fatal(err)
	}
	defer local.Close()
	snapDir := t.TempDir()
	if err := local.SaveSnapshot(snapDir); err != nil {
		t.Fatal(err)
	}

	addrs, servers := startShardTier(t, snapDir, 2, 1)
	rc, err := Connect(snapDir, addrs, WithQueryCache(0))
	if err != nil {
		t.Fatalf("Connect: %v", err)
	}
	defer rc.Close()

	// The identity the facade records is the one the router placed shards
	// by — never a second read of the directory — and both are the
	// generation the shard servers hashed out of their own documents.
	checkIdentity := func(when string) {
		t.Helper()
		d := rc.data.Load()
		got, placed := remote.Fingerprint(d.gen.Source), remote.Fingerprint(d.rt.Source())
		if got != placed {
			t.Fatalf("%s: facade records generation %016x, router placed %016x", when, got, placed)
		}
		for addr, srv := range servers {
			if srv.Fingerprint() != got {
				t.Fatalf("%s: server %s serves generation %016x, facade records %016x", when, addr, srv.Fingerprint(), got)
			}
		}
	}
	checkIdentity("Connect")

	if got, want := rc.Shards(), local.Shards(); got != want {
		t.Fatalf("Shards() = %d, want %d", got, want)
	}
	// Remote Stats carries only what the analysis artifacts and corpus-wide
	// counters can answer (node-level statistics stay with the servers).
	if ls, rs := local.Stats(), rc.Stats(); rs.Elements != ls.Elements ||
		strings.Join(rs.Entities, ",") != strings.Join(ls.Entities, ",") {
		t.Fatalf("Stats() = %+v, want Elements/Entities of %+v", rs, ls)
	}

	var queries []string
	for _, wq := range workload.Generate(doc, workload.Config{Queries: 8, Keywords: 2, Seed: 7}) {
		queries = append(queries, wq.Text())
	}
	queries = append(queries, "zzznosuchkeyword", "")
	optionMixes := [][]SearchOption{
		nil,
		{WithELCA()},
		{WithTrimmedResults()},
		{WithRanking()},
		{WithMaxResults(3), WithRanking()},
	}
	const bound = 8
	for mi, mix := range optionMixes {
		for _, q := range queries {
			want, werr := local.Query(q, bound, mix...)
			got, gerr := rc.Query(q, bound, mix...)
			if (werr == nil) != (gerr == nil) {
				t.Fatalf("mix %d, %q: errors differ: local %v, remote %v", mi, q, werr, gerr)
			}
			if werr != nil {
				continue
			}
			if w, g := renderChaosHits(want), renderChaosHits(got); w != g {
				t.Fatalf("mix %d, %q: answers differ\nlocal  %s\nremote %s", mi, q, w, g)
			}
		}
	}

	// Operations that need local documents or indexes must refuse cleanly.
	if err := rc.SaveSnapshot(t.TempDir()); !errors.Is(err, ErrRemoteCorpus) {
		t.Fatalf("SaveSnapshot on remote corpus: %v, want ErrRemoteCorpus", err)
	}
	if _, err := rc.XPath("//store"); !errors.Is(err, ErrRemoteCorpus) {
		t.Fatalf("XPath on remote corpus: %v, want ErrRemoteCorpus", err)
	}
	if _, err := rc.ReloadDelta(strings.NewReader(xml)); !errors.Is(err, ErrRemoteCorpus) {
		t.Fatalf("ReloadDelta on remote corpus: %v, want ErrRemoteCorpus", err)
	}
	if got, want := rc.Suggest("st", 5), local.Suggest("st", 5); !slices.Equal(got, want) || len(want) == 0 {
		t.Fatalf("Suggest on remote corpus = %v, local %v", got, want)
	}

	// ReloadSnapshot re-reads the manifest and re-places; same generation,
	// so answers must be untouched.
	if _, err := rc.ReloadSnapshot(snapDir); err != nil {
		t.Fatalf("ReloadSnapshot: %v", err)
	}
	checkIdentity("ReloadSnapshot")
	q := queries[0]
	want, err := local.Query(q, bound)
	if err != nil {
		t.Fatal(err)
	}
	got, err := rc.Query(q, bound)
	if err != nil {
		t.Fatalf("query after ReloadSnapshot: %v", err)
	}
	if renderChaosHits(want) != renderChaosHits(got) {
		t.Fatal("answers drifted after ReloadSnapshot")
	}
}

// TestRoutedReloadSnapshotReportsReuse: a routed ReloadSnapshot reports the
// shards LoadDelta's adoption rule would adopt — unchanged content hash at
// the same position — as reused, so the reload metrics see a delta and not
// a full rebuild. Two snapshots one shard apart, then the same one again.
func TestRoutedReloadSnapshotReportsReuse(t *testing.T) {
	dirA, dirB := t.TempDir(), t.TempDir()
	for dir, doc := range map[string]*xmltree.Document{dirA: deltaBaseDoc(), dirB: deltaVariants()["one-entity"]()} {
		c, err := LoadString(xmltree.XMLString(doc.Root), WithShards(3))
		if err != nil {
			t.Fatal(err)
		}
		if err := c.SaveSnapshot(dir); err != nil {
			t.Fatal(err)
		}
		c.Close()
	}
	addrs, _ := startShardTier(t, dirA, 2, 1)
	rc, err := Connect(dirA, addrs, WithQueryCache(0))
	if err != nil {
		t.Fatal(err)
	}
	defer rc.Close()
	for _, want := range []DeltaStats{{Shards: 3, Reused: 2, Rebuilt: 1}, {Shards: 3, Reused: 3}} {
		stats, err := rc.ReloadSnapshot(dirB)
		if err != nil || stats != want {
			t.Fatalf("routed ReloadSnapshot = %+v, %v; want %+v", stats, err, want)
		}
	}
}

// TestChaosRemoteReplicaFailover is the distributed chaos pin: with 2-way
// replica groups, one replica misbehaving — dropping connections, erroring,
// stalling, and finally being killed outright mid-stream — must cost ZERO
// failed queries: every query fails over to the healthy peer and answers
// byte-identical to the fault-free baseline. After the faults clear the
// tier keeps answering identically through the surviving replicas. Run
// under -race in CI.
func TestChaosRemoteReplicaFailover(t *testing.T) {
	defer faultinject.Reset()
	doc := gen.Stores(gen.StoresConfig{Retailers: 5, StoresPerRetailer: 3, ClothesPerStore: 4, Seed: 77})
	xml := xmltree.XMLString(doc.Root)
	seedCorpus, err := LoadString(xml, WithShards(4))
	if err != nil {
		t.Fatal(err)
	}
	snapDir := t.TempDir()
	if err := seedCorpus.SaveSnapshot(snapDir); err != nil {
		t.Fatal(err)
	}
	seedCorpus.Close()

	addrs, servers := startShardTier(t, snapDir, 2, 2)
	rc, err := Connect(snapDir, addrs, WithWorkers(3), WithQueryCache(0))
	if err != nil {
		t.Fatalf("Connect: %v", err)
	}
	defer rc.Close()

	// Pin fault-free baselines for queries with results.
	const bound = 8
	var queries []string
	want := map[string]string{}
	for _, wq := range workload.Generate(doc, workload.Config{Queries: 12, Keywords: 2, Seed: 7}) {
		q := wq.Text()
		hits, err := rc.Query(q, bound)
		if err != nil {
			t.Fatalf("baseline query %q: %v", q, err)
		}
		if len(hits) == 0 {
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

	// Phase 1: the victim — second replica of group 0 — cycles through the
	// three remote failure shapes. The server-side hook severs connections
	// and injects evaluation errors; the router-side hook injects transport
	// faults on send. Every failure class must fail over to the peer.
	victim := addrs[0][1]
	var tick atomic.Uint64
	replicaErr := errors.New("chaos: injected replica failure")
	faultinject.SetTag(faultinject.RemoteServe, func(tag string) error {
		if tag != victim {
			return nil
		}
		switch tick.Add(1) % 3 {
		case 0:
			return remote.ErrDropConnection
		case 1:
			return replicaErr
		default:
			time.Sleep(200 * time.Microsecond)
			return nil
		}
	})
	faultinject.SetTag(faultinject.RemoteSend, func(tag string) error {
		if tag == victim && tick.Add(1)%5 == 0 {
			return replicaErr
		}
		return nil
	})

	runPhase := func(phase string, mid func()) {
		const workers, iters = 6, 30
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(id int) {
				defer wg.Done()
				for i := 0; i < iters; i++ {
					q := queries[(id+i)%len(queries)]
					hits, err := rc.Query(q, bound)
					if err != nil {
						t.Errorf("%s: query %q failed (failover should cover every fault): %v", phase, q, err)
						return
					}
					if renderChaosHits(hits) != want[q] {
						t.Errorf("%s: wrong answer for %q", phase, q)
						return
					}
				}
			}(w)
		}
		if mid != nil {
			mid()
		}
		wg.Wait()
	}
	runPhase("injected faults", nil)

	// Phase 2: faults cleared, then the victim is killed for real
	// mid-stream — in-flight connections sever, new dials are refused.
	// Still zero failed queries.
	faultinject.Reset()
	runPhase("replica killed", func() {
		time.Sleep(2 * time.Millisecond)
		servers[victim].Close()
	})

	// Recovery: the degraded tier (one replica in group 0) answers every
	// pinned query byte-identically.
	for _, q := range queries {
		hits, err := rc.Query(q, bound)
		if err != nil {
			t.Fatalf("query %q after chaos: %v", q, err)
		}
		if renderChaosHits(hits) != want[q] {
			t.Fatalf("query %q drifted after chaos", q)
		}
	}
}

// TestRoutedQueryTracing pins the distributed-tracing acceptance surface:
// a slow routed query's slow-query record and the corpus's recent-trace
// ring both carry the same trace ID, per-hop replica addresses, and the
// server-side stage breakdown the shard servers echoed.
func TestRoutedQueryTracing(t *testing.T) {
	doc := gen.Stores(gen.StoresConfig{Retailers: 4, StoresPerRetailer: 3, ClothesPerStore: 5, Seed: 11})
	seedCorpus, err := LoadString(xmltree.XMLString(doc.Root), WithShards(3))
	if err != nil {
		t.Fatal(err)
	}
	snapDir := t.TempDir()
	if err := seedCorpus.SaveSnapshot(snapDir); err != nil {
		t.Fatal(err)
	}
	seedCorpus.Close()

	addrs, _ := startShardTier(t, snapDir, 2, 1)
	var records []QueryTrace
	rc, err := Connect(snapDir, addrs, WithQueryCache(0),
		WithSlowQueryLog(time.Nanosecond, func(q QueryTrace) { records = append(records, q) }))
	if err != nil {
		t.Fatalf("Connect: %v", err)
	}
	defer rc.Close()

	if _, err := rc.Query("store texas", 6); err != nil {
		t.Fatal(err)
	}
	if len(records) != 1 {
		t.Fatalf("got %d slow-query records, want 1", len(records))
	}
	rec := records[0]
	if rec.TraceID == 0 {
		t.Fatal("slow-query record has no trace ID")
	}
	if len(rec.Hops) == 0 {
		t.Fatal("routed slow query recorded no hops")
	}
	replicas := map[string]bool{}
	for _, g := range addrs {
		for _, a := range g {
			replicas[a] = true
		}
	}
	groups := map[string]bool{}
	for _, h := range rec.Hops {
		if h.Err != "" {
			t.Fatalf("unexpected failed hop: %+v", h)
		}
		if !replicas[h.Replica] {
			t.Fatalf("hop names unknown replica %q: %+v", h.Replica, h)
		}
		if h.Wire <= 0 {
			t.Fatalf("hop missing wire duration: %+v", h)
		}
		if h.ServerDecode <= 0 || h.ServerEncode <= 0 {
			t.Fatalf("hop missing server-side stage timings: %+v", h)
		}
		groups[h.Group] = true
	}
	if !groups["0"] || !groups["1"] {
		t.Fatalf("hops did not span both replica groups: %v", groups)
	}

	// The same query must be in the recent-trace ring (the first query is
	// always sampled), findable by the slow-query record's trace ID and
	// carrying the same hop detail — but no query text.
	traces := rc.RecentTraces()
	var qt *QueryTrace
	for i := range traces {
		if traces[i].TraceID == rec.TraceID {
			qt = &traces[i]
			break
		}
	}
	if qt == nil {
		t.Fatalf("trace %016x not in RecentTraces", rec.TraceID)
	}
	if len(qt.Hops) != len(rec.Hops) {
		t.Fatalf("trace has %d hops, slow-query record %d", len(qt.Hops), len(rec.Hops))
	}
	if len(qt.Stages) == 0 || qt.Cache == "" || qt.Kept == "" {
		t.Fatalf("trace missing stage/cache/kept detail: %+v", qt)
	}
	for _, h := range qt.Hops {
		if !replicas[h.Replica] || h.ServerDecode <= 0 {
			t.Fatalf("trace hop incomplete: %+v", h)
		}
	}
}

// TestRoutedHitBuildsItsTreeOnce: a routed hit's result arrives without its
// tree, and many goroutines making the first Result.XML call on one cached
// hit at once — the shared cache entry every caller replays — build it
// once: every call returns the same tree, equal to the local answer's, and
// a later replay of the entry hands out that same tree. Run under -race in
// CI.
func TestRoutedHitBuildsItsTreeOnce(t *testing.T) {
	doc := gen.Stores(gen.StoresConfig{Retailers: 4, StoresPerRetailer: 3, ClothesPerStore: 5, Seed: 11})
	local, err := LoadString(xmltree.XMLString(doc.Root), WithShards(3))
	if err != nil {
		t.Fatal(err)
	}
	defer local.Close()
	dir := t.TempDir()
	if err := local.SaveSnapshot(dir); err != nil {
		t.Fatal(err)
	}
	addrs, _ := startShardTier(t, dir, 2, 1)
	rc, err := Connect(dir, addrs)
	if err != nil {
		t.Fatal(err)
	}
	defer rc.Close()

	const q, bound = "store texas", 8
	want, err := local.Query(q, bound)
	if err != nil || len(want) == 0 {
		t.Fatalf("local query: %d hits, %v", len(want), err)
	}
	if _, err := rc.Query(q, bound); err != nil {
		t.Fatal(err)
	}
	hits, err := rc.Query(q, bound) // a cache hit: the shared entry
	if err != nil || len(hits) != len(want) {
		t.Fatalf("routed query: %d hits, %v", len(hits), err)
	}
	if st, _ := rc.QueryCacheStats(); st.Hits == 0 {
		t.Fatal("the second query was not answered from the cache")
	}
	hit := hits[0]
	if _, deferred := hit.Result.r.Retained(); !deferred {
		t.Fatal("a routed result arrived with its tree")
	}
	if hit.Result.Size() != want[0].Result.Size() {
		t.Fatalf("deferred size %d, local %d", hit.Result.Size(), want[0].Result.Size())
	}

	const readers = 32
	xmls := make([]string, readers)
	roots := make([]*xmltree.Node, readers)
	start := make(chan struct{})
	var wg sync.WaitGroup
	for i := range readers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			xmls[i] = must(hit.Result.XML())
			roots[i] = must(hit.Result.Root())
		}()
	}
	close(start)
	wg.Wait()
	for i := range readers {
		if xmls[i] != must(want[0].Result.XML()) || roots[i] != roots[0] {
			t.Fatalf("reader %d: a different tree (same root %v)", i, roots[i] == roots[0])
		}
	}
	again, err := rc.Query(q, bound)
	if err != nil {
		t.Fatal(err)
	}
	if must(again[0].Result.Root()) != roots[0] {
		t.Fatal("a replay of the entry built the tree again")
	}
}

// connectStores saves the stores fixture as a three-shard snapshot, serves it
// from two single-replica groups and returns the local corpus it was saved
// from and a corpus connected to the tier with opts.
func connectStores(t *testing.T, opts ...Option) (local, rc *Corpus) {
	t.Helper()
	doc := gen.Stores(gen.StoresConfig{Retailers: 4, StoresPerRetailer: 3, ClothesPerStore: 5, Seed: 11})
	local, err := LoadString(xmltree.XMLString(doc.Root), WithShards(3))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(local.Close)
	dir := t.TempDir()
	if err := local.SaveSnapshot(dir); err != nil {
		t.Fatal(err)
	}
	addrs, _ := startShardTier(t, dir, 2, 1)
	rc, err = Connect(dir, addrs, opts...)
	if err != nil {
		t.Fatalf("Connect: %v", err)
	}
	t.Cleanup(rc.Close)
	return local, rc
}

// remoteCalls sums a connected corpus's extract_remote_calls_total series of
// one call kind, over outcomes and groups.
func remoteCalls(t *testing.T, rc *Corpus, kind string) int {
	t.Helper()
	var buf strings.Builder
	if err := rc.WriteMetrics(&buf); err != nil {
		t.Fatal(err)
	}
	total := 0
	for _, line := range strings.Split(buf.String(), "\n") {
		if !strings.HasPrefix(line, "extract_remote_calls_total{") || !strings.Contains(line, `kind="`+kind+`"`) {
			continue
		}
		n, err := strconv.Atoi(line[strings.LastIndexByte(line, ' ')+1:])
		if err != nil {
			t.Fatalf("metric line %q: %v", line, err)
		}
		total += n
	}
	return total
}

// TestRankedQueryFailsWhenStatisticsFail: ranking a routed answer reads the
// corpus-wide statistics from the tier, and a query that cannot fetch them
// fails with the classified remote error after one stats call — a cache hit
// too, which evaluates nothing — rather than ordering by zero counts. Once the
// tier answers again, the ranked hits and scores are the local corpus's.
func TestRankedQueryFailsWhenStatisticsFail(t *testing.T) {
	defer faultinject.Reset()
	local, rc := connectStores(t)
	const q, bound = "store texas", 8
	if _, err := rc.Query(q, bound); err != nil {
		t.Fatal(err)
	}
	if _, err := rc.Search(q); err != nil {
		t.Fatal(err)
	}

	sendErr := errors.New("injected send failure")
	faultinject.SetTag(faultinject.RemoteSend, func(string) error { return sendErr })
	cached, _ := rc.QueryCacheStats()
	statsBefore := remoteCalls(t, rc, "stats")
	_, err := rc.Query(q, bound, WithRanking())
	var re *remote.RemoteError
	if !errors.As(err, &re) || !errors.Is(err, sendErr) {
		t.Fatalf("ranked query during a stats outage: %v, want the classified send failure", err)
	}
	if st, _ := rc.QueryCacheStats(); st.Hits != cached.Hits+1 {
		t.Fatalf("the ranked query was not a cache hit (%d hits, %d before)", st.Hits, cached.Hits)
	}
	if n := remoteCalls(t, rc, "stats") - statsBefore; n != 1 {
		t.Fatalf("the ranked query made %d stats calls, want 1", n)
	}
	if _, err := rc.Search(q, WithRanking()); !errors.As(err, &re) {
		t.Fatalf("ranked search during a stats outage: %v, want a *remote.RemoteError", err)
	}

	faultinject.Reset()
	want, err := local.Query(q, bound, WithRanking())
	if err != nil || len(want) == 0 {
		t.Fatalf("local ranked query: %d hits, %v", len(want), err)
	}
	got, err := rc.Query(q, bound, WithRanking())
	if err != nil {
		t.Fatalf("ranked query after the outage: %v", err)
	}
	if w, g := renderChaosHits(want), renderChaosHits(got); w != g {
		t.Fatalf("ranked answers differ\nlocal  %s\nremote %s", w, g)
	}
	for i := range want {
		if w, g := want[i].Result.Score(), got[i].Result.Score(); w != g || w == 0 {
			t.Fatalf("hit %d: score %v, local %v", i, g, w)
		}
	}
}

// TestRoutedHitsOwnTheirBytes: a routed hit's tree and snippet are built over
// the response payloads they arrived in, so those payloads must never be
// reused. Hold one answer's hits and read their trees, then serve many other
// routed queries and tree reads over the same connections: the held hits'
// result XML, snippet XML and IList render byte for byte as before.
func TestRoutedHitsOwnTheirBytes(t *testing.T) {
	local, rc := connectStores(t, WithQueryCache(0))
	render := func(hits []*Hit) string {
		var b strings.Builder
		for _, h := range hits {
			b.WriteString(must(h.Result.XML()))
			b.WriteString(h.Snippet.XML())
			b.WriteString(strings.Join(h.Snippet.IList(), "|"))
		}
		return b.String()
	}
	const q, bound = "store texas", 8
	held, err := rc.Query(q, bound)
	if err != nil || len(held) == 0 {
		t.Fatalf("routed query: %d hits, %v", len(held), err)
	}
	before := render(held)
	if want := render(must(local.Query(q, bound))); before != want {
		t.Fatalf("routed hits differ from local\nlocal  %s\nremote %s", want, before)
	}

	doc := gen.Stores(gen.StoresConfig{Retailers: 4, StoresPerRetailer: 3, ClothesPerStore: 5, Seed: 11})
	served := 0
	for range 3 {
		for _, wq := range workload.Generate(doc, workload.Config{Queries: 20, Keywords: 2, Seed: 3}) {
			hits, err := rc.Query(wq.Text(), bound)
			if err != nil {
				t.Fatalf("query %q: %v", wq.Text(), err)
			}
			render(hits)
			served += len(hits)
		}
	}
	if served == 0 {
		t.Fatal("the other queries served no hits")
	}
	if after := render(held); after != before {
		t.Fatalf("held hits changed after other queries\nbefore %s\nafter  %s", before, after)
	}
}
