package main

import (
	"context"
	"fmt"
	"math"
	"net"
	"os"
	"path/filepath"
	"runtime"
	"sync/atomic"

	"extract"
	"extract/internal/core"
	"extract/internal/features"
	"extract/internal/ilist"
	"extract/internal/index"
	"extract/internal/ingest"
	"extract/internal/persist"
	"extract/internal/rank"
	"extract/internal/remote"
	"extract/internal/search"
	"extract/internal/selector"
	"extract/internal/serve"
	"extract/internal/shard"
	"extract/internal/telemetry"
	"extract/xmltree"
)

// traceBlockOps is the number of traced ops between yardstick marks.
const traceBlockOps = 10

// opTimes holds the raw timings (ms) the layer probes of one op produced.
type opTimes struct {
	block                      int
	untraced                   float64 // the same op through the facade with no spans
	hit, hitProbeOK            bool    // the facade call was a cache hit; the serve.hit probe was one
	facadeQuery, render        float64
	serveMiss, serveHit        float64
	shardSearch, remoteBackend float64
	lookup, rank               float64
	evals, snippets            []float64
	collect, ilist, greedy     float64
	skipped                    int
	rounds, wireBytes          int64
	serverEval, serverCodec    float64
}

// blocking is the share of a parallel fan-out that the caller waits for when
// the parts run on p processors: at least the slowest part, at least an
// even split of the total.
func blocking(parts []float64, p int) float64 {
	var sum, max float64
	for _, d := range parts {
		sum += d
		max = math.Max(max, d)
	}
	return math.Max(max, sum/float64(p))
}

// wireCount counts what crosses the router's connections.
type wireCount struct{ writes, bytes atomic.Int64 }

type countingConn struct {
	net.Conn
	n *wireCount
}

func (c countingConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	c.n.bytes.Add(int64(n))
	return n, err
}

// Write counts one round per call: the router flushes each request frame
// (a few dozen bytes) to the connection in a single write.
func (c countingConn) Write(p []byte) (int, error) {
	n, err := c.Conn.Write(p)
	c.n.writes.Add(1)
	c.n.bytes.Add(int64(n))
	return n, err
}

func searchOptions(o op) search.Options {
	opts := search.Options{MaxResults: maxResults, DistinctAnchors: true}
	if o.elca() {
		opts.Semantics = search.SemanticsELCA
	}
	return opts
}

// ledger is the traced pass: spans from the benchmark's own code around
// calls into each layer's public functions, and the per-layer metrics
// reduced from them.
type ledger struct {
	w   workloadSpec
	fx  *fixture
	y   *yardstick
	rec *recorder
	res *result
}

// dialCounting dials like the router does and counts what crosses.
func dialCounting(wire *wireCount) func(ctx context.Context, addr string) (net.Conn, error) {
	return func(ctx context.Context, addr string) (net.Conn, error) {
		var d net.Dialer
		conn, err := d.DialContext(ctx, "tcp", addr)
		if err != nil {
			return nil, err
		}
		return countingConn{conn, wire}, nil
	}
}

// traceOps replays the leading ops of the workload's stream, calling each
// query layer directly on internals built from the file the workload is
// serving: a sharded corpus, a snapshot of it behind two shard servers and
// a router, and a serving layer configured like the facade's. Each op also
// runs through the workload's own corpus twice, traced and untraced (which
// comes first alternates by block, so that on a cached workload neither
// always finds the other's entry); the traced response goes to verify.
func (l *ledger) traceOps(sys *system, live string, head []op, verify func(op, string)) error {
	w, fx, rec := l.w, l.fx, l.rec
	ctx := context.Background()
	procs := runtime.GOMAXPROCS(0)

	f, err := os.Open(live)
	if err != nil {
		return err
	}
	doc, err := xmltree.Parse(f)
	f.Close()
	if err != nil {
		return err
	}
	sc := shard.Build(doc, corpusShards)
	// The routed workload already runs a tier over this very corpus; a
	// second one would double the resident heap and slow every probe.
	snap, tr := sys.snapshot, sys.tier
	if tr == nil {
		snap = filepath.Join(fx.dir, "ledger-snapshot")
		if err := ingest.Snapshot(snap, sc); err != nil {
			return err
		}
		if tr, err = startTier(snap, routedGroups); err != nil {
			return err
		}
		defer tr.close()
	}
	wire := &wireCount{}
	rt, err := remote.OpenSnapshot(snap, tr.addrs, remote.WithDialer(dialCounting(wire)))
	if err != nil {
		return err
	}
	defer rt.Close()

	// The serving layer as the facade configures it for this workload, over
	// the backend kind the workload uses; and, where that has no cache, a
	// second one with the default cache to time a hit on.
	var backend serve.Backend = sc
	if w.routed {
		backend = rt
	}
	var svOpts []serve.Option
	if !w.cached {
		svOpts = append(svOpts, serve.WithCacheBytes(0))
	}
	sv := serve.New(backend, svOpts...)
	defer sv.Close()
	svHit := sv
	if !w.cached {
		svHit = serve.New(backend)
		defer svHit.Close()
	}
	pool := serve.NewPool(procs)
	defer pool.Stop()
	gen := core.NewGenerator(sc.Analysis())
	collector := features.NewCollector(sc.Classification())
	scorer := rank.NewScorerFunc(sc.Count, sc.TotalElements())
	engines := map[search.Options][]*search.Engine{}

	norm := newNormaliser(l.y)
	times := make([]opTimes, len(head))
	for i, o := range head {
		if i%traceBlockOps == 0 {
			norm.mark()
		}
		t := &times[i]
		t.block = i / traceBlockOps
		tracedFirst := t.block%2 == 1
		untraced := func() { t.untraced = timeMS(func() { answer(sys.c, fx, o) }) }
		query, opts := fx.pool[o.query], searchOptions(o)
		if engines[opts] == nil {
			engines[opts] = sc.Engines(opts)
		}
		probe := func(name string, parent int, fn func()) (int, float64) { return rec.time(name, parent, i, fn) }

		// The op itself, through the facade: the traced twin of the
		// measured phase's request, and the bytes that get checked.
		var hits []*extract.Hit
		var got string
		if !tracedFirst {
			untraced()
		}
		before, _ := sys.c.QueryCacheStats()
		opID := rec.begin("op", -1, i)
		facadeID, facadeMS := probe("facade.query", opID, func() {
			hits, err = sys.c.QueryContext(ctx, query, snippetBound, o.options()...)
		})
		t.facadeQuery = facadeMS
		_, t.render = probe("facade.render", opID, func() { got = render(hits) })
		rec.end(opID)
		if err != nil {
			got = ""
		}
		after, _ := sys.c.QueryCacheStats()
		t.hit = after.Hits > before.Hits
		if tracedFirst {
			untraced()
		}
		verify(o, got)

		// serve: a forced miss, then a hit on a key just computed.
		var rs []*search.Result
		sv.Invalidate()
		missID, missMS := probe("serve.miss", facadeID, func() { rs, _, err = sv.QueryContext(ctx, query, opts, snippetBound) })
		if err != nil {
			return fmt.Errorf("serve probe, op %d: %w", i, err)
		}
		t.serveMiss = missMS
		if svHit != sv {
			svHit.QueryContext(ctx, query, opts, snippetBound)
		}
		hitsBefore := svHit.Stats().Hits
		_, t.serveHit = probe("serve.hit", facadeID, func() { svHit.QueryContext(ctx, query, opts, snippetBound) })
		t.hitProbeOK = svHit.Stats().Hits > hitsBefore

		// The backends. Off the workload's own path a probe hangs from
		// the op root.
		routerParent, shardParent := opID, missID
		if w.routed {
			routerParent = missID
		}
		sink := &telemetry.SpanSink{TraceID: telemetry.NextTraceID()}
		writes, bytes := wire.writes.Load(), wire.bytes.Load()
		routerID, routerMS := probe("remote.backend", routerParent, func() {
			_, err = rt.SearchEnginesContext(telemetry.WithSpanSink(ctx, sink), query, opts, nil, pool.Run)
		})
		if err != nil {
			return fmt.Errorf("router probe, op %d: %w", i, err)
		}
		t.remoteBackend = routerMS
		t.rounds, t.wireBytes = wire.writes.Load()-writes, wire.bytes.Load()-bytes
		for _, h := range sink.Hops() {
			t.serverEval += ms(h.ServerEval)
			t.serverCodec += ms(h.ServerDecode + h.ServerDigest + h.ServerEncode)
		}
		if w.routed {
			shardParent = routerID
		}
		shardID, shardMS := probe("shard.search", shardParent, func() {
			_, err = sc.SearchEnginesContext(ctx, query, opts, engines[opts], pool.Run)
		})
		if err != nil {
			return fmt.Errorf("shard probe, op %d: %w", i, err)
		}
		t.shardSearch = shardMS

		// Per-shard evaluation, one shard at a time (busy time, not wall),
		// skipping the shards the prefilter rules out as the product does.
		var tokens []string
		for _, term := range search.ParseQuery(query) {
			tokens = append(tokens, term.Tokens...)
		}
		for s, shardCorpus := range sc.Shards() {
			if !shardCorpus.Index.Prefilter().MayContainAll(tokens) {
				t.skipped++
				continue
			}
			root := shardCorpus.Doc.Root
			evalID, evalMS := probe("search.eval", shardID, func() {
				engines[opts][s].EvaluateResults(query, func(n *xmltree.Node) bool { return n != root })
			})
			t.evals = append(t.evals, evalMS)
			_, lookupMS := probe("index.lookup", evalID, func() {
				for _, kw := range index.Tokenize(query) {
					shardCorpus.Index.List(kw)
				}
			})
			t.lookup += lookupMS
		}

		// Snippets, result by result, then each stage of one on its own.
		kws := index.Tokenize(query)
		analysis := sc.Analysis()
		for _, r := range rs {
			snippetID, snippetMS := probe("core.snippet", missID, func() { gen.ForResult(r, query, snippetBound) })
			t.snippets = append(t.snippets, snippetMS)
			var stats *features.Stats
			var il *ilist.IList
			_, d := probe("features.collect", snippetID, func() { stats = collector.Collect(r.Doc.Root) })
			t.collect += d
			_, d = probe("ilist.build", snippetID, func() { il = ilist.Build(r.Doc.Root, kws, analysis.Cls, analysis.Keys, stats) })
			t.ilist += d
			_, d = probe("selector.greedy", snippetID, func() { selector.Greedy(r.Doc, il, analysis.Cls, stats, snippetBound) })
			t.greedy += d
		}
		if o.ranked() {
			var keys []string
			for _, term := range search.ParseQuery(query) {
				keys = append(keys, term.String())
			}
			_, t.rank = probe("rank.sort", facadeID, func() { scorer.Sort(append([]*search.Result(nil), rs...), keys) })
		}
	}
	norm.mark()

	// Reduce: every timing to reference µs, then the ledger per op.
	acc := map[string][]float64{}
	add := func(name string, v float64) { acc[name] = append(acc[name], v) }
	var tracedCost, untracedCost float64
	for i := range times {
		t := &times[i]
		yardMS := norm.yard(t.block)
		us := func(rawMS float64) float64 { return rawMS / yardMS * yardstickRefMS * 1000 }
		for id := range rec.spans {
			if rec.spans[id].Op == i {
				rec.spans[id].YardMS = yardMS
			}
		}
		evalBlocking, snippetBlocking := us(blocking(t.evals, procs)), us(blocking(t.snippets, procs))
		backend := us(t.shardSearch)
		if w.routed {
			backend = us(t.remoteBackend)
		}
		shardSelf := us(t.shardSearch) - evalBlocking
		tax := us(t.remoteBackend) - us(t.shardSearch)
		serveSelf := us(t.serveMiss) - backend - snippetBlocking
		facadeSelf := us(t.facadeQuery) - us(t.serveMiss)
		if t.hit {
			facadeSelf = us(t.facadeQuery) - us(t.serveHit)
		}
		// The ledger: self times along the path this op took.
		ledger := facadeSelf + us(t.render)
		switch {
		case t.hit:
			ledger += us(t.serveHit)
		case w.routed:
			ledger += serveSelf + tax + shardSelf + evalBlocking + snippetBlocking
		default:
			ledger += serveSelf + shardSelf + evalBlocking + snippetBlocking
		}
		tracedCost += us(t.facadeQuery) + us(t.render)
		untracedCost += us(t.untraced)

		add("index.lookup_us", us(t.lookup))
		add("search.eval_us", us(sum(t.evals)))
		add("search.eval_calls_per_req", float64(len(t.evals)))
		add("shard.search_us", us(t.shardSearch))
		add("shard.self_us", shardSelf)
		add("shard.skipped_ratio", float64(t.skipped)/corpusShards)
		add("core.snippet_us", us(sum(t.snippets)))
		add("core.snippets_per_req", float64(len(t.snippets)))
		add("features.collect_us", us(t.collect))
		add("ilist.build_us", us(t.ilist))
		add("selector.greedy_us", us(t.greedy))
		if head[i].ranked() {
			add("rank.sort_us", us(t.rank))
		}
		add("serve.miss_us", us(t.serveMiss))
		add("serve.self_us", serveSelf)
		if t.hitProbeOK {
			add("serve.hit_us", us(t.serveHit))
		}
		if !t.hit || t.hitProbeOK {
			add("facade.self_us", facadeSelf)
			add("facade.unaccounted_us", us(t.untraced)-ledger)
		}
		add("facade.render_us", us(t.render))
		add("remote.backend_us", us(t.remoteBackend))
		add("remote.tax_us", tax)
		add("remote.rounds_per_req", float64(t.rounds))
		add("remote.wire_kb_per_req", float64(t.wireBytes)/1024)
		add("remote.server_eval_us", us(t.serverEval))
		add("remote.server_codec_us", us(t.serverCodec))
	}
	for name, vs := range acc {
		l.res.PerLayer.set(perLayer, name, mean(vs))
	}
	l.res.PerLayer.set(perLayer, "host.trace_overhead_frac", tracedCost/untracedCost-1)
	l.res.Samples["traced_ops"] = len(times)
	return nil
}

// traceSetUp times each set-up layer once, bottom up, from the live file.
// It runs after everything else the process held has been released: with
// two more corpora resident the garbage collector made xmltree.Parse read
// 1.6 times slower.
func (l *ledger) traceSetUp(live string) error {
	fx, layers := l.fx, l.res.PerLayer
	var stepErr error
	setUp := func(name string, fn func() error) float64 {
		var id int
		refMS, yardMS := bracket(l.y, func() {
			id, _ = l.rec.time(name, -1, -1, func() {
				if err := fn(); err != nil && stepErr == nil {
					stepErr = fmt.Errorf("%s: %w", name, err)
				}
			})
		})
		l.rec.spans[id].YardMS = yardMS
		return refMS
	}

	var doc *xmltree.Document
	layers.set(perLayer, "xmltree.parse_ms", setUp("xmltree.parse", func() error {
		f, err := os.Open(live)
		if err != nil {
			return err
		}
		defer f.Close()
		doc, err = xmltree.Parse(f)
		return err
	}))
	if stepErr != nil {
		return stepErr
	}
	layers.set(perLayer, "core.analyze_ms", setUp("core.analyze", func() error { core.Analyze(doc, nil); return nil }))
	var sc *shard.Corpus
	builds := index.Builds()
	layers.set(perLayer, "shard.build_ms", setUp("shard.build", func() error { sc = shard.Build(doc, corpusShards); return nil }))
	layers.set(perLayer, "index.builds", float64(index.Builds()-builds))
	layers.set(perLayer, "index.build_ms", setUp("index.build", func() error {
		for _, s := range sc.Shards() {
			index.Build(s.Doc)
		}
		return nil
	}))
	image := filepath.Join(fx.dir, "shard0.xtix")
	layers.set(perLayer, "persist.save_ms", setUp("persist.save", func() error { return persist.SaveFile(image, sc.Shards()[0]) }))
	layers.set(perLayer, "persist.load_ms", setUp("persist.load", func() error { _, err := persist.LoadFile(image); return err }))
	if fi, err := os.Stat(image); err == nil {
		layers.set(perLayer, "persist.image_mb", float64(fi.Size())/(1<<20))
	}
	snap := filepath.Join(fx.dir, "set-up-snapshot")
	layers.set(perLayer, "ingest.snapshot_ms", setUp("ingest.snapshot", func() error { return ingest.Snapshot(snap, sc) }))
	layers.set(perLayer, "ingest.load_ms", setUp("ingest.load", func() error { _, err := ingest.Load(snap); return err }))
	if stepErr != nil {
		return stepErr
	}
	doc, sc = nil, nil
	tr, err := startTier(snap, routedGroups)
	if err != nil {
		return err
	}
	layers.set(perLayer, "remote.connect_ms", setUp("remote.connect", func() error {
		c, err := extract.Connect(snap, tr.addrs)
		if err != nil {
			return err
		}
		defer c.Close()
		_, err = c.QueryContext(context.Background(), fx.pool[0], snippetBound, extract.WithMaxResults(maxResults))
		return err
	}))
	tr.close()

	// A delta reload to the other variant and back, on a local corpus.
	local, err := extract.LoadFile(live, l.w.loadOptions()...)
	if err != nil {
		return err
	}
	defer local.Close()
	var delta extract.DeltaStats
	var reloadMS float64
	for _, file := range []string{fx.other(live), live} {
		reloadMS += setUp("facade.reload_delta", func() error {
			var err error
			delta, err = local.ReloadDeltaFile(file, l.w.loadOptions()...)
			return err
		}) / 2
	}
	layers.set(perLayer, "facade.reload_delta_ms", reloadMS)
	layers.set(perLayer, "ingest.shards_rebuilt", float64(delta.Rebuilt))
	layers.set(perLayer, "ingest.shards_reused", float64(delta.Reused))
	return stepErr
}
