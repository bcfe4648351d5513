package bench

import (
	"context"
	"fmt"
	"net"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"extract/internal/index"
	"extract/internal/ingest"
	"extract/internal/remote"
	"extract/internal/search"
	"extract/internal/serve"
	"extract/internal/shard"
	"extract/internal/telemetry"
	"extract/internal/workload"
	"extract/xmltree"
)

// ServePerfPoint is one row of the serving-layer throughput trajectory: a
// Zipf-distributed workload of repeated keyword queries replayed against
// the serving layer by concurrent clients, once with the query cache
// disabled (cold — every query pays full evaluation) and once warm. The
// warm/cold QPS ratio is the cache's benefit on repeated-query traffic,
// and — both phases running back to back on the same machine — it is the
// machine-normalized quantity the CI gate compares, exactly like the
// persist gate's load-speedup ratio. Each corpus size is measured twice:
// with several shards (evaluation fanned out per shard) and with one (the
// default, evaluated inline on the lone engine) — both serve through the
// same layer and both are gated.
type ServePerfPoint struct {
	Nodes           int `json:"nodes"`
	Shards          int `json:"shards"`
	Workers         int `json:"workers"`
	Clients         int `json:"clients"`
	DistinctQueries int `json:"distinct_queries"`
	Ops             int `json:"ops"`

	// Backend distinguishes the evaluation path: "" for a local corpus
	// (the regular trajectory) and "remote" for the routed point — the
	// same workload served through a loopback shard tier, so the gap to
	// the local point of the same size is the router + wire overhead.
	Backend string `json:"backend,omitempty"`

	ColdQPS     float64 `json:"cold_qps"`
	WarmQPS     float64 `json:"warm_qps"`
	WarmSpeedup float64 `json:"warm_speedup"`
	HitRate     float64 `json:"warm_hit_rate"`

	// ColdYardstickNs is the same run's frozen-code yardstick: one pass of
	// search.SLCABaseline (the pre-rewrite reference SLCA, untouched by
	// optimization work) over the workload's distinct queries on an index of
	// the query corpus. It prices "one unit of SLCA work on this machine
	// under this load", which is what makes ColdWork comparable across
	// machines.
	ColdYardstickNs int64 `json:"cold_yardstick_ns,omitempty"`

	// Per-query latency quantiles in nanoseconds, from a lock-free
	// histogram recording every op of the measured phase (quantile error
	// ≤6.25%, never under-reported). Each phase re-runs until two
	// consecutive attempts agree on p99 within latencyRerunSlack (or the
	// attempt budget runs out); the reported run is the one with the best
	// p99 and LatencyRuns counts the attempts it took, so a committed
	// baseline reflects a stable measurement, not one noisy pass.
	ColdP50Ns  int64 `json:"cold_p50_ns,omitempty"`
	ColdP99Ns  int64 `json:"cold_p99_ns,omitempty"`
	ColdP999Ns int64 `json:"cold_p999_ns,omitempty"`
	WarmP50Ns  int64 `json:"warm_p50_ns,omitempty"`
	WarmP99Ns  int64 `json:"warm_p99_ns,omitempty"`
	WarmP999Ns int64 `json:"warm_p999_ns,omitempty"`
	// LatencyRuns is how many attempts the variance check needed, summed
	// over the cold and warm phases (2 = both stable on the first try).
	LatencyRuns int `json:"latency_runs,omitempty"`
}

// TailRatio is the machine-normalized latency quantity the CI gate
// compares: the warm p99 relative to the cold median of the same
// back-to-back run. Raw nanoseconds differ per machine, but "a cached
// p99 query costs at most this fraction of an uncached median query"
// transfers — it is the serving layer's tail-latency guarantee. Zero
// when the point predates latency capture.
func (p ServePerfPoint) TailRatio() float64 {
	if p.WarmP99Ns <= 0 || p.ColdP50Ns <= 0 {
		return 0
	}
	return float64(p.WarmP99Ns) / float64(p.ColdP50Ns)
}

// ColdWork is the machine-normalized cold-throughput quantity the CI gate
// compares: cold QPS times the same run's frozen-SLCA yardstick, i.e. how
// many baseline-SLCA passes' worth of work the uncached path serves per
// second. Raw cold QPS is meaningless across machines, but both factors
// here come from one run on one machine — contention depresses the QPS and
// inflates the yardstick together — so the product transfers like the
// other gated ratios. It pins the cold path directly, which WarmSpeedup
// cannot: cold and warm slowing down together keeps that ratio flat. Zero
// when the point predates yardstick capture.
func (p ServePerfPoint) ColdWork() float64 {
	if p.ColdQPS <= 0 || p.ColdYardstickNs <= 0 {
		return 0
	}
	return p.ColdQPS * float64(p.ColdYardstickNs) / 1e9
}

// servePerfShards is the shard count of the serve trajectory corpus.
const servePerfShards = 4

const (
	// latencyMaxRuns bounds the variance re-run loop per phase.
	latencyMaxRuns = 4
	// latencyRerunSlack is how far apart two consecutive attempts' p99
	// may be (relative, either direction) and still count as a stable
	// measurement.
	latencyRerunSlack = 0.30
)

// withinSlack reports whether a and b differ by at most slack relative to
// the smaller of the two.
func withinSlack(a, b int64, slack float64) bool {
	lo, hi := a, b
	if lo > hi {
		lo, hi = hi, lo
	}
	if lo <= 0 {
		return false
	}
	return float64(hi-lo)/float64(lo) <= slack
}

// ServePerf measures concurrent query throughput at the given sizes
// (default 1k/10k/100k nodes), one several-shard and one one-shard point
// per size.
func ServePerf(sizes []int) ([]ServePerfPoint, error) {
	if len(sizes) == 0 {
		sizes = []int{1_000, 10_000, 100_000}
	}
	var points []ServePerfPoint
	for _, size := range sizes {
		for _, shards := range []int{servePerfShards, 1} {
			p, err := servePerfPoint(size, shards)
			if err != nil {
				return nil, err
			}
			points = append(points, p)
		}
	}
	return points, nil
}

func servePerfPoint(size, shards int) (ServePerfPoint, error) {
	doc, nodes, qs, yardstickNs, err := serveWorkload(size)
	if err != nil {
		return ServePerfPoint{}, err
	}
	sc := shard.Build(doc, shards)
	return measureServePoint(sc, nodes, sc.NumShards(), "", qs, yardstickNs)
}

// ServePerfRemote measures the routed point: the same corpus and workload
// as the local sharded point of the same size, served through a loopback
// shard tier — two replica groups of one remote.Server each behind a
// remote.Router backend. The gap between this row and the local sharded
// row of the same size is the distribution tax: router fan-out, wire
// framing, and server-side decode/encode.
func ServePerfRemote(size int) (ServePerfPoint, error) {
	doc, nodes, qs, yardstickNs, err := serveWorkload(size)
	if err != nil {
		return ServePerfPoint{}, err
	}
	sc := shard.Build(doc, servePerfShards)
	src := ingest.SourceOf(sc)
	const groups = 2
	var lns []net.Listener
	var servers []*remote.Server
	addrs := make([][]string, 0, groups)
	closeTier := func() {
		for _, s := range servers {
			s.Close()
		}
		for _, ln := range lns {
			ln.Close()
		}
	}
	for g := 0; g < groups; g++ {
		ln, lerr := net.Listen("tcp", "127.0.0.1:0")
		if lerr != nil {
			closeTier()
			return ServePerfPoint{}, lerr
		}
		srv := remote.NewServer(sc, remote.WithOwnedShards(remote.OwnedShards(src, g, groups)))
		go srv.Serve(ln)
		lns = append(lns, ln)
		servers = append(servers, srv)
		addrs = append(addrs, []string{ln.Addr().String()})
	}
	rt, err := remote.NewRouter(sc.Analysis(), src, addrs)
	if err != nil {
		closeTier()
		return ServePerfPoint{}, err
	}
	defer func() {
		rt.Close()
		closeTier()
	}()
	return measureServePoint(rt, nodes, sc.NumShards(), "remote", qs, yardstickNs)
}

// serveWorkload builds the serve-trajectory document, its Zipf query
// workload, and the frozen-code yardstick for the cold-QPS gate
// (ServePerfPoint.ColdWork): one SLCABaseline pass over the distinct
// workload queries, on an index of the query corpus — same machine, same
// moment, same keyword lists the serving layer is about to chew on.
func serveWorkload(size int) (doc *xmltree.Document, nodes int, qs []workload.Query, yardstickNs int64, err error) {
	doc = storesCorpusOfSize(size, 3)
	nodes = doc.Len()
	qdoc := storesCorpusOfSize(size, 3) // corpus building consumes its document
	qs = workload.Generate(qdoc, workload.Config{Queries: 40, Keywords: 2, Seed: 17})
	if len(qs) == 0 {
		return nil, 0, nil, 0, fmt.Errorf("bench: no serve workload at %d nodes", size)
	}
	yardIx := index.Build(qdoc)
	yardstickNs = timeIt(3, func() {
		for _, q := range qs {
			lists := make([][]*xmltree.Node, 0, len(q.Keywords))
			for _, kw := range q.Keywords {
				lists = append(lists, yardIx.Nodes(kw))
			}
			search.SLCABaseline(lists...)
		}
	})
	return doc, nodes, qs, yardstickNs, nil
}

// measureServePoint replays the cold and warm phases against an
// already-built backend and assembles the point. Shared by the local
// trajectory and the routed loopback point, so both measure identically.
func measureServePoint(backend serve.Backend, nodes, numShards int, backendKind string, qs []workload.Query, yardstickNs int64) (ServePerfPoint, error) {
	workers := runtime.GOMAXPROCS(0)
	clients := workers
	if clients > 8 {
		clients = 8
	}

	// One fixed Zipf-skewed op sequence, replayed identically by both
	// phases: ~80% of draws hit the head few queries, the tail keeps the
	// cache's working set honest.
	ops := 24 * len(qs)
	stream := workload.NewStream(qs, 1.3, 7).Take(ops)
	opts := search.Options{DistinctAnchors: true, MaxResults: 25}

	run := func(srv *serve.Server) (qps float64, lat *telemetry.HistogramSnapshot, err error) {
		var next atomic.Int64
		var firstErr atomic.Pointer[error]
		var wg sync.WaitGroup
		var hist telemetry.Histogram
		start := time.Now()
		for c := 0; c < clients; c++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for {
					i := int(next.Add(1)) - 1
					if i >= len(stream) {
						return
					}
					// Do, as the facade's Query calls it: a routed answer's
					// trees stay deferred, as they do for a served query.
					opStart := time.Now()
					if _, qerr := srv.Do(context.Background(), stream[i].Text(), opts, 10); qerr != nil {
						firstErr.CompareAndSwap(nil, &qerr)
						return
					}
					hist.Observe(time.Since(opStart))
				}
			}()
		}
		wg.Wait()
		elapsed := time.Since(start)
		if e := firstErr.Load(); e != nil {
			return 0, nil, *e
		}
		return float64(len(stream)) / elapsed.Seconds(), hist.Snapshot(), nil
	}

	// runStable replays the phase until two consecutive attempts agree on
	// p99 within latencyRerunSlack, up to latencyMaxRuns attempts. It
	// reports the best-p99 attempt's latency distribution and the best QPS
	// seen — on a contended machine the cleanest run is the closest to the
	// true cost, and re-running only ever tightens the measurement.
	runStable := func(srv *serve.Server) (qps float64, lat *telemetry.HistogramSnapshot, runs int, err error) {
		var prevP99 int64
		for runs < latencyMaxRuns {
			q, h, rerr := run(srv)
			if rerr != nil {
				return 0, nil, runs, rerr
			}
			runs++
			if q > qps {
				qps = q
			}
			p99 := h.Quantile(0.99)
			if lat == nil || p99 < lat.Quantile(0.99) {
				lat = h
			}
			if prevP99 > 0 && withinSlack(prevP99, p99, latencyRerunSlack) {
				break
			}
			prevP99 = p99
		}
		return qps, lat, runs, nil
	}

	// Cold: cache disabled, so every op pays evaluation and snippet
	// generation (singleflight still coalesces true ties, as it would in
	// production).
	coldSrv := serve.New(backend, serve.WithWorkers(workers), serve.WithCacheBytes(0))
	cold, coldLat, coldRuns, err := runStable(coldSrv)
	coldSrv.Close()
	if err != nil {
		return ServePerfPoint{}, err
	}

	// Warm: cache on, working set pre-touched once, then the same ops.
	warmSrv := serve.New(backend, serve.WithWorkers(workers))
	defer warmSrv.Close()
	for _, q := range qs {
		if _, err := warmSrv.Do(context.Background(), q.Text(), opts, 10); err != nil {
			return ServePerfPoint{}, err
		}
	}
	pre := warmSrv.Stats()
	warm, warmLat, warmRuns, err := runStable(warmSrv)
	if err != nil {
		return ServePerfPoint{}, err
	}
	post := warmSrv.Stats()

	p := ServePerfPoint{
		Nodes:           nodes,
		Shards:          numShards,
		Workers:         workers,
		Clients:         clients,
		DistinctQueries: len(qs),
		Ops:             ops,
		Backend:         backendKind,
		ColdQPS:         cold,
		WarmQPS:         warm,
		ColdYardstickNs: yardstickNs,
		HitRate:         float64(post.Hits-pre.Hits) / float64(ops*warmRuns),
		ColdP50Ns:       coldLat.Quantile(0.5),
		ColdP99Ns:       coldLat.Quantile(0.99),
		ColdP999Ns:      coldLat.Quantile(0.999),
		WarmP50Ns:       warmLat.Quantile(0.5),
		WarmP99Ns:       warmLat.Quantile(0.99),
		WarmP999Ns:      warmLat.Quantile(0.999),
		LatencyRuns:     coldRuns + warmRuns,
	}
	if cold > 0 {
		p.WarmSpeedup = warm / cold
	}
	return p, nil
}

// UpdateServePerf runs the serve suite and merges the points into the
// report JSON at path, preserving the other recorded trajectories.
func UpdateServePerf(path string, sizes []int) ([]ServePerfPoint, error) {
	points, err := ServePerf(sizes)
	if err != nil {
		return nil, err
	}
	report, err := ReadReport(path)
	if err != nil {
		return nil, err
	}
	// Keep any routed points: the local suite replaces only its own rows,
	// so -serve and -serve-remote can update the report independently.
	for _, p := range report.Serve {
		if p.Backend != "" {
			points = append(points, p)
		}
	}
	report.Serve = points
	return points, WriteReport(path, report)
}

// UpdateServeRemotePerf measures the routed loopback point at the given
// size and merges it into the report at path, replacing only previously
// recorded remote points and leaving the local trajectory untouched.
func UpdateServeRemotePerf(path string, size int) (ServePerfPoint, error) {
	p, err := ServePerfRemote(size)
	if err != nil {
		return ServePerfPoint{}, err
	}
	report, err := ReadReport(path)
	if err != nil {
		return ServePerfPoint{}, err
	}
	kept := report.Serve[:0:0]
	for _, q := range report.Serve {
		if q.Backend == "" {
			kept = append(kept, q)
		}
	}
	report.Serve = append(kept, p)
	return p, WriteReport(path, report)
}

// RenderServe prints a human summary of the serve points.
func RenderServe(points []ServePerfPoint) string {
	var b strings.Builder
	fmt.Fprintf(&b, "## serving layer: concurrent QPS and latency, cold vs warm cache\n\n")
	fmt.Fprintf(&b, "| nodes | shards | backend | clients | ops | cold qps | cold work | warm qps | x | hit rate | cold p50/p99 | warm p50/p99 | tail ratio | runs |\n")
	fmt.Fprintf(&b, "|---|---|---|---|---|---|---|---|---|---|---|---|---|---|\n")
	us := func(ns int64) string { return fmt.Sprintf("%.0fµs", float64(ns)/1e3) }
	for _, p := range points {
		backend := p.Backend
		if backend == "" {
			backend = "local"
		}
		fmt.Fprintf(&b, "| %d | %d | %s | %d | %d | %.0f | %.2f | %.0f | %.1f | %.2f | %s / %s | %s / %s | %.3f | %d |\n",
			p.Nodes, p.Shards, backend, p.Clients, p.Ops,
			p.ColdQPS, p.ColdWork(), p.WarmQPS, p.WarmSpeedup, p.HitRate,
			us(p.ColdP50Ns), us(p.ColdP99Ns), us(p.WarmP50Ns), us(p.WarmP99Ns),
			p.TailRatio(), p.LatencyRuns)
	}
	return b.String()
}
