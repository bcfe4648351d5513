package remote

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"fmt"
	"net"
	"strconv"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"extract/internal/classify"
	"extract/internal/core"
	"extract/internal/faultinject"
	"extract/internal/gen"
	"extract/internal/ingest"
	"extract/internal/search"
	"extract/internal/serve"
	"extract/internal/shard"
	"extract/internal/telemetry"
	"extract/xmltree"
)

// recordingConn keeps every byte a router reads from one connection.
type recordingConn struct {
	net.Conn
	mu   *sync.Mutex
	read *bytes.Buffer
}

func (c recordingConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	c.mu.Lock()
	c.read.Write(p[:n])
	c.mu.Unlock()
	return n, err
}

// wireRecorder is a dialer that records what the router reads, connection
// by connection.
type wireRecorder struct {
	mu    sync.Mutex
	conns []*bytes.Buffer
}

func (w *wireRecorder) dial(ctx context.Context, addr string) (net.Conn, error) {
	c, err := netDial(ctx, addr)
	if err != nil {
		return nil, err
	}
	buf := &bytes.Buffer{}
	w.mu.Lock()
	w.conns = append(w.conns, buf)
	w.mu.Unlock()
	return recordingConn{Conn: c, mu: &w.mu, read: buf}, nil
}

// frames splits everything read so far into frames, by type.
func (w *wireRecorder) frames(t *testing.T) map[msgType][][]byte {
	t.Helper()
	w.mu.Lock()
	defer w.mu.Unlock()
	out := map[msgType][][]byte{}
	for _, buf := range w.conns {
		br := bufio.NewReader(bytes.NewReader(buf.Bytes()))
		for {
			mt, payload, err := readFrame(br)
			if err != nil {
				break
			}
			out[mt] = append(out[mt], payload)
		}
	}
	return out
}

// callsOf counts the router's calls of one kind, by group label.
func callsOf(rt *Router, kind string) map[string]int64 {
	n := map[string]int64{}
	for key, c := range rt.metrics.calls {
		if key[0] == kind && c.Value() > 0 {
			n[key[2]] += c.Value()
		}
	}
	return n
}

// TestSnippetedAnswerShipsNoTrees: a result crosses the wire as its handle,
// size and depths, and its snippet is asked for by that handle. A snippeted
// routed answer that nobody reads
// takes no trees call, and no eval or full frame the servers sent carries
// the tree record of any result it shipped — which the same frames carried,
// byte for byte, while results shipped their trees.
func TestSnippetedAnswerShipsNoTrees(t *testing.T) {
	sc := versionTestCorpus()
	rec := &wireRecorder{}
	cl := startCluster(t, sc, 2, 1, WithDialer(rec.dial))
	rt := cl.router
	doc := versionTestDoc()
	queries := append(testQueries(doc), doc.Root.Label)
	ctx := context.Background()
	var records [][]byte
	for _, opts := range testOptions {
		for _, q := range queries {
			rs, gs, err := rt.Answer(ctx, search.Parse(q), opts, nil, 8)
			if err != nil {
				continue
			}
			if len(gs) != len(rs) {
				t.Fatalf("%q: %d snippets for %d results", q, len(gs), len(rs))
			}
			local, err := sc.Search(q, opts)
			if err != nil {
				t.Fatal(err)
			}
			for _, r := range local {
				// A record of a few nodes could recur by chance inside a
				// snippet record, which encodes its nodes the same way.
				if r.Size() >= 8 {
					records = append(records, appendResult(nil, r))
				}
			}
		}
	}
	if n := callsOf(rt, "trees"); len(n) != 0 {
		t.Fatalf("answers nobody read made trees calls: %v", n)
	}
	frames := rec.frames(t)
	shipped := append(frames[msgEvalResp], frames[msgFullResp]...)
	if len(records) < 10 || len(frames[msgEvalResp]) == 0 || len(frames[msgFullResp]) == 0 {
		t.Fatalf("%d tree records, %d eval and %d full frames: the matrix proves nothing",
			len(records), len(frames[msgEvalResp]), len(frames[msgFullResp]))
	}
	for _, rec := range records {
		for _, frame := range shipped {
			if bytes.Contains(frame, rec) {
				t.Fatalf("a %d-byte result tree record crossed the wire in an answer frame", len(rec))
			}
		}
	}
	if len(frames[msgTreesResp]) != 0 {
		t.Fatalf("%d trees frames for answers nobody read", len(frames[msgTreesResp]))
	}
}

// TestTreeReadTakesOneRoundPerGroup: reading every tree of an answer costs
// one trees call to each replica group that holds one of its results — a
// round-two answer's too, whose full response ships every result under its
// own shard, save the result anchored at the root, which the "any"
// pseudo-group serves — and reading them again, or reading any of them
// first, costs nothing more. The trees are the local results.
func TestTreeReadTakesOneRoundPerGroup(t *testing.T) {
	mk := func() *xmltree.Document {
		return gen.Stores(gen.StoresConfig{Retailers: 6, StoresPerRetailer: 3, ClothesPerStore: 4, Seed: 3})
	}
	sc := shard.Build(mk(), 5)
	cl := startCluster(t, sc, 3, 1)
	rt := cl.router
	groupOf := PlaceShards(ingest.SourceOf(sc), 3)
	// groupLabel names the group holding a result: the one its shard is
	// placed on, or "any" for the result anchored at the root.
	root := sc.Shards()[0].Doc.Root
	groupLabel := func(r *search.Result) string {
		if w, _ := r.Whole(); w != nil || r.Anchor == root {
			return "any"
		}
		for i, s := range sc.Shards() {
			if s.Doc.ByOrd(r.Anchor.Ord) == r.Anchor {
				return strconv.Itoa(groupOf[i])
			}
		}
		t.Fatalf("result anchored outside every shard")
		return ""
	}
	doc := mk()
	queries := append(testQueries(doc), doc.Root.Label)
	ctx := context.Background()
	multi, whole, spread := 0, 0, 0
	for _, opts := range testOptions {
		for _, q := range queries {
			local, err := sc.Search(q, opts)
			if err != nil || len(local) == 0 {
				continue
			}
			sink := &telemetry.SpanSink{}
			unbuilt, err := sc.SearchEnginesContext(telemetry.WithSpanSink(ctx, sink), q, opts, nil, nil)
			if err != nil {
				t.Fatal(err)
			}
			want := map[string]int64{}
			for _, r := range unbuilt {
				want[groupLabel(r)] = 1
			}
			if sink.Fallback() && len(want) > 1 {
				spread++
			}
			rs, _, err := rt.Answer(ctx, search.Parse(q), opts, nil, 8)
			if err != nil {
				t.Fatalf("%q: %v", q, err)
			}
			before := callsOf(rt, "trees")
			// The last result first: its group's fetch brings the trees
			// of its group-mates too.
			for i := len(rs) - 1; i >= 0; i-- {
				tree, err := rs[i].Tree(context.Background())
				if err != nil {
					t.Fatalf("%q: tree %d: %v", q, i, err)
				}
				if g, w := xmltree.XMLString(tree.Root), xmltree.XMLString(local[i].Root); g != w {
					t.Fatalf("%q: tree %d differs\nwant %s\ngot  %s", q, i, w, g)
				}
			}
			for _, r := range rs {
				r.Tree(context.Background())
			}
			after := callsOf(rt, "trees")
			got := map[string]int64{}
			for g, n := range after {
				if d := n - before[g]; d != 0 {
					got[g] = d
				}
			}
			if len(got) != len(want) {
				t.Fatalf("%q: trees calls %v, want one to each of %v", q, got, want)
			}
			for g := range want {
				if got[g] != 1 {
					t.Fatalf("%q: trees calls %v, want one to each of %v", q, got, want)
				}
			}
			if len(want) > 1 {
				multi++
			}
			if want["any"] == 1 {
				whole++
			}
		}
	}
	if multi == 0 || whole == 0 || spread == 0 {
		t.Fatalf("%d answers spanned groups, %d had a result anchored at the root, %d took round two and spanned groups: the matrix proves nothing",
			multi, whole, spread)
	}
}

// TestRouterGenerationIsOnePair: the router's analysis and identity are one
// placement, swapped in one step. Readers looping over the placement and
// Stats while ReloadSnapshot flips the router between two snapshots always
// see a matching pair: the analysis of the generation whose identity comes
// with it, and the element count of the generation whose analysis comes
// with it.
func TestRouterGenerationIsOnePair(t *testing.T) {
	scA := shard.Build(gen.Stores(gen.StoresConfig{Retailers: 3, StoresPerRetailer: 2, ClothesPerStore: 3, Seed: 1}), 2)
	scB := shard.Build(gen.Movies(gen.MoviesConfig{Movies: 8, Seed: 2}), 2)
	dirA, dirB := t.TempDir(), t.TempDir()
	for dir, sc := range map[string]*shard.Corpus{dirA: scA, dirB: scB} {
		if err := ingest.Snapshot(dir, sc); err != nil {
			t.Fatal(err)
		}
	}
	fpA, fpB := Fingerprint(ingest.SourceOf(scA)), Fingerprint(ingest.SourceOf(scB))
	isA := func(a *core.Corpus) bool { return a.Cls.OfLabel("store") == classify.Entity }
	if !isA(scA.Analysis()) || isA(scB.Analysis()) || fpA == fpB {
		t.Fatal("fixture: the generations must be told apart by their analyses")
	}
	// One server, on generation A: the router's Stats counts A's elements
	// while it places A, and none (a skewed fetch) while it places B.
	cl := startCluster(t, scA, 1, 1)
	rt := cl.router

	stop := make(chan struct{})
	var wg sync.WaitGroup
	var reads [2]atomic.Int64
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				pl := rt.place.Load()
				if fp := Fingerprint(pl.src); isA(pl.analysis) != (fp == fpA) || fp != pl.fingerprint || (fp != fpA && fp != fpB) {
					t.Errorf("analysis of A: %v, with identity %016x (A %016x, B %016x)", isA(pl.analysis), fp, fpA, fpB)
					return
				}
				analysis, total := rt.Stats()
				if total != 0 && (!isA(analysis) || total != scA.TotalElements()) {
					t.Errorf("analysis of A: %v, with %d elements (A has %d)", isA(analysis), total, scA.TotalElements())
					return
				}
				reads[w].Add(1)
			}
		}()
	}
	// At least 40 reloads, and on until both readers have read across some.
	deadline := time.Now().Add(10 * time.Second)
	for i := 0; i < 40 || reads[0].Load() < 100 || reads[1].Load() < 100; i++ {
		if time.Now().After(deadline) {
			break
		}
		dir := dirB
		if i%2 == 1 {
			dir = dirA
		}
		if err := rt.ReloadSnapshot(dir); err != nil {
			t.Fatal(err)
		}
	}
	close(stop)
	wg.Wait()
	if reads[0].Load() < 100 || reads[1].Load() < 100 {
		t.Fatalf("readers made %d and %d reads", reads[0].Load(), reads[1].Load())
	}
}

// TestTreeReadStopsWithItsContext: a tree read runs within its reader's
// context. A cached answer whose trees nobody read yet is served again with
// every shard server stalled: QueryContext, which reads the trees, returns
// the context's deadline error when the context ends, not when the internal
// bound on context-free reads would. Once the tier recovers, the same entry
// reads its trees.
func TestTreeReadStopsWithItsContext(t *testing.T) {
	sc := shard.Build(gen.Stores(gen.StoresConfig{Retailers: 4, StoresPerRetailer: 3, ClothesPerStore: 4, Seed: 5}), 4)
	cl := startCluster(t, sc, 2, 1)
	sv := serve.New(cl.router)
	defer sv.Close()
	const q, bound = "store", 6
	opts := search.Options{DistinctAnchors: true}
	if v, err := sv.Do(context.Background(), q, opts, bound); err != nil || len(v.Results) == 0 {
		t.Fatalf("answer: %v", err)
	}
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
	rs, _, err := sv.QueryContext(ctx, q, opts, bound)
	if elapsed := time.Since(start); !errors.Is(err, context.DeadlineExceeded) || elapsed > backgroundCallTimeout/2 {
		t.Fatalf("stalled tree read: %d results, %v after %v; want the context's deadline", len(rs), err, elapsed)
	}
	if sv.Stats().Hits != 1 {
		t.Fatalf("cache stats %+v: the read did not come from the cached entry", sv.Stats())
	}
	unstall()
	if rs, _, err = sv.QueryContext(context.Background(), q, opts, bound); err != nil || len(rs) == 0 || rs[0].Root == nil {
		t.Fatalf("read after the tier recovered: %d results, %v", len(rs), err)
	}
}

// TestTreeReadAsksGroupsAtOnce: the first tree read of an answer that spans
// groups asks them all at once — every group's trees call is in flight
// before any is answered — so a page that reads its trees waits for one
// round, not one per group.
func TestTreeReadAsksGroupsAtOnce(t *testing.T) {
	sc := shard.Build(gen.Stores(gen.StoresConfig{Retailers: 6, StoresPerRetailer: 3, ClothesPerStore: 4, Seed: 3}), 4)
	const groups = 2
	cl := startCluster(t, sc, groups, 1)
	rt := cl.router
	rs, _, err := rt.Answer(context.Background(), search.Parse("store"), search.Options{DistinctAnchors: true}, nil, 6)
	if err != nil || len(rs) == 0 {
		t.Fatalf("answer: %d results, %v", len(rs), err)
	}
	// Each call is held until every group's has arrived, or for two
	// seconds: a call that waited that long was alone.
	var arrived, alone atomic.Int32
	all := make(chan struct{})
	faultinject.SetTag(faultinject.RemoteServe, func(string) error {
		if arrived.Add(1) == groups {
			close(all)
		}
		select {
		case <-all:
		case <-time.After(2 * time.Second):
			alone.Add(1)
		}
		return nil
	})
	defer faultinject.Reset()
	if _, err := rs[0].Tree(context.Background()); err != nil {
		t.Fatal(err)
	}
	if alone.Load() != 0 || arrived.Load() != groups {
		t.Fatalf("%d trees calls, %d of them answered alone: the groups were asked one after another", arrived.Load(), alone.Load())
	}
	if n := callsOf(rt, "trees"); len(n) != groups {
		t.Fatalf("trees calls %v: the answer does not span every group", n)
	}
}

// TestRacingTreeReadsTakeOneRoundPerGroup: goroutines racing to make the
// first tree reads of different results of one routed answer share one
// fetch — the answer's batch (search.Batch) runs one build for all its
// results — so the answer costs one trees call per replica group, and every
// reader gets the local result's tree. The servers hold each call a moment,
// so every reader arrives while the fetch is in flight.
func TestRacingTreeReadsTakeOneRoundPerGroup(t *testing.T) {
	sc := shard.Build(gen.Stores(gen.StoresConfig{Retailers: 6, StoresPerRetailer: 3, ClothesPerStore: 4, Seed: 3}), 4)
	rt := startCluster(t, sc, 2, 1).router
	const q = "store"
	opts := search.Options{DistinctAnchors: true}
	local, err := sc.Search(q, opts)
	if err != nil {
		t.Fatal(err)
	}
	rs, _, err := rt.Answer(context.Background(), search.Parse(q), opts, nil, -1)
	if err != nil || len(rs) != len(local) || len(rs) < 2 {
		t.Fatalf("answer: %d results, local %d, %v", len(rs), len(local), err)
	}
	faultinject.SetTag(faultinject.RemoteServe, func(string) error {
		time.Sleep(50 * time.Millisecond)
		return nil
	})
	defer faultinject.Reset()
	const readersPerResult = 4
	start := make(chan struct{})
	var wg sync.WaitGroup
	errs := make(chan error, readersPerResult*len(rs))
	for i := range rs {
		for range readersPerResult {
			wg.Add(1)
			go func() {
				defer wg.Done()
				<-start
				tree, err := rs[i].Tree(context.Background())
				if err != nil {
					errs <- err
				} else if g, w := xmltree.XMLString(tree.Root), xmltree.XMLString(local[i].Root); g != w {
					errs <- fmt.Errorf("tree %d differs\nwant %s\ngot  %s", i, w, g)
				}
			}()
		}
	}
	close(start)
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	calls := callsOf(rt, "trees")
	if len(calls) < 2 {
		t.Fatalf("trees calls %v: the answer does not span groups", calls)
	}
	for g, n := range calls {
		if n != 1 {
			t.Fatalf("trees calls %v: %d to group %s, want one to each", calls, n, g)
		}
	}
}
