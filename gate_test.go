package extract

// The ratio gates. Each BenchmarkGate* times a subject against a yardstick
// measured in the same run, interleaved, and fails (b.Fatalf) when the ratio
// breaks its bound. A ratio of two timings taken side by side transfers
// across machines where raw nanoseconds do not. CI runs them once:
//
//	go test -run '^$' -bench '^BenchmarkGate' -benchtime=1x .
//
// A gate samples until its minimums settle, so it is its own repetition
// loop and ignores b.N. Run without -benchtime=1x, the framework calls a
// gate again with b.N growing until a second has passed; those calls
// return at once (gateRun), so the gate still samples once, its ratios
// are the first call's and its ns/op reads near zero.
//
// Every bound is a pure function in internal/bench (gates.go), pinned by
// that package's tier-1 tests.

import (
	"context"
	"fmt"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"extract/internal/bench"
	"extract/internal/core"
	"extract/internal/gen"
	"extract/internal/index"
	"extract/internal/ingest"
	"extract/internal/persist"
	"extract/internal/remote"
	"extract/internal/search"
	"extract/internal/serve"
	"extract/internal/shard"
	"extract/internal/telemetry"
	"extract/internal/workload"
	"extract/xmltree"
)

// servePoints are the serve gate's points; bench.ServePoint keys each
// point's bounds, local and routed apart.
var servePoints = []bench.ServePoint{
	{Size: 1_000, Shards: 4}, {Size: 1_000, Shards: 1},
	{Size: 10_000, Shards: 4}, {Size: 10_000, Shards: 1},
	{Size: 100_000, Shards: 4}, {Size: 100_000, Shards: 1},
	{Size: 10_000, Shards: 4, Routed: true},
}

// gateRun holds one gate point's reported metrics, so that the framework's
// repeat calls (b.N > 1) skip the sampling and report them again.
type gateRun map[string]float64

// repeat reports whether the point has sampled already, and if so reports
// that sampling's metrics on b.
func (g *gateRun) repeat(b *testing.B) bool {
	if *g == nil {
		*g = gateRun{}
		return false
	}
	for unit, v := range *g {
		b.ReportMetric(v, unit)
	}
	return true
}

// report records a metric and reports it on b.
func (g gateRun) report(b *testing.B, v float64, unit string) {
	g[unit] = v
	b.ReportMetric(v, unit)
}

// timeInterleaved times each side as a cold one-shot — an untimed setup
// (when not nil) and a forced GC before every run — and returns each
// side's minimum in nanoseconds. The sides run alternately, one run each a
// round, so a stretch of contention on a shared machine slows all of them
// rather than whichever was being timed during it: a gate reads their
// ratio. Scheduler noise is additive and bursty, so sampling goes on (at
// least minReps rounds, at most maxReps) until no side's minimum has
// improved for patience rounds.
func timeInterleaved(minReps, maxReps int, setup func(), sides ...func()) []int64 {
	const patience = 8
	best := make([]int64, len(sides))
	for _, fn := range sides {
		if setup != nil {
			setup()
		}
		fn() // warm the code paths, not the measurement
	}
	sinceImproved := 0
	for i := 0; i < maxReps && (i < minReps || sinceImproved < patience); i++ {
		sinceImproved++
		for j, fn := range sides {
			if setup != nil {
				setup()
			}
			runtime.GC()
			start := time.Now()
			fn()
			if d := time.Since(start).Nanoseconds(); best[j] == 0 || d < best[j] {
				best[j] = d
				sinceImproved = 0
			}
		}
	}
	return best
}

// storesOfSize builds a stores document of roughly the given node count:
// four retailers of five stores, clothes scaled to fit.
func storesOfSize(nodes int, seed int64) *xmltree.Document {
	per := nodes / (4 * 5 * 7)
	if per < 1 {
		per = 1
	}
	return gen.Stores(gen.StoresConfig{Retailers: 4, StoresPerRetailer: 5, ClothesPerStore: per, Seed: seed})
}

// postingLists returns each keyword's posting list as nodes, the frozen
// SLCA's input, or nil when a keyword has none.
func postingLists(ix *index.Index, kws []string) [][]*xmltree.Node {
	lists := make([][]*xmltree.Node, len(kws))
	for i, kw := range kws {
		if lists[i] = ix.Nodes(kw); len(lists[i]) == 0 {
			return nil
		}
	}
	return lists
}

// BenchmarkGateColdQuery: one query end to end — search plus one snippet
// per result, core.Pipeline — against search.SLCABaseline over the same
// keywords' posting lists, at 1k, 10k and 100k nodes.
func BenchmarkGateColdQuery(b *testing.B) {
	for _, size := range []int{1_000, 10_000, 100_000} {
		// Two copies: building a corpus consumes its document, and the
		// yardstick's lists must point into a live tree.
		doc, qdoc := storesOfSize(size, 3), storesOfSize(size, 3)
		var run gateRun
		b.Run(fmt.Sprintf("nodes=%d", doc.Len()), func(b *testing.B) {
			if run.repeat(b) {
				return
			}
			ix := index.Build(doc)
			var lists [][]*xmltree.Node
			var query string
			for _, q := range workload.Generate(doc, workload.Config{Queries: 5, Keywords: 3, Seed: 7}) {
				if lists = postingLists(ix, q.Keywords); lists != nil {
					query = q.Text()
					break
				}
			}
			if lists == nil {
				b.Fatal("no workload query with matches")
			}
			corpus := core.BuildCorpus(qdoc)
			opts := search.Options{DistinctAnchors: true}
			ns := timeInterleaved(10, 40, nil,
				func() { search.SLCABaseline(lists...) },
				func() {
					if _, err := core.Pipeline(corpus, query, 10, opts); err != nil {
						b.Fatal(err)
					}
				})
			ratio := float64(ns[1]) / float64(ns[0])
			run.report(b, ratio, "query/slca")
			g, ok := bench.QueryBound(size)
			if !ok {
				b.Fatalf("no committed query ratio at %d nodes", size)
			}
			if err := g.Check("query over SLCA yardstick", ratio); err != nil {
				b.Fatal(err)
			}
		})
	}
}

// BenchmarkGatePersistLoad: loading a packed image (persist.LoadFile)
// against building the same corpus from its XML, at 100k nodes.
func BenchmarkGatePersistLoad(b *testing.B) {
	var run gateRun
	b.Run("nodes=100000", func(b *testing.B) {
		if !run.repeat(b) {
			gatePersistLoad(b, run)
		}
	})
}

func gatePersistLoad(b *testing.B, run gateRun) {
	doc := storesOfSize(100_000, 1)
	xml := xmltree.XMLString(doc.Root)
	path := filepath.Join(b.TempDir(), "corpus.xtix")
	if err := persist.SaveFile(path, core.BuildCorpus(doc)); err != nil {
		b.Fatal(err)
	}
	// The collector runs before every run and not during one: a cycle
	// landing mid-decode slows the few-millisecond packed load two- to
	// threefold on two cores, and whether one lands depends on the heap's
	// history, not on either path's work.
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	ns := timeInterleaved(10, 40, nil,
		func() {
			parsed, err := xmltree.ParseString(xml)
			if err != nil {
				b.Fatal(err)
			}
			core.BuildCorpus(parsed)
		},
		func() {
			if _, err := persist.LoadFile(path); err != nil {
				b.Fatal(err)
			}
		})
	ratio := float64(ns[0]) / float64(ns[1])
	run.report(b, ratio, "rebuild/load")
	if err := bench.PersistBound().Check("packed load over rebuild", ratio); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkGateServe replays one Zipf workload of repeated queries against
// the serving layer from concurrent clients, cold (cache off) and warm,
// interleaved with one SLCA-yardstick pass over the distinct queries, and
// gates three ratios per point: warm over cold QPS (bench.WarmBound), the warm
// p99 over the cold median (bench.TailBound) and cold QPS times the yardstick
// (bench.ColdWorkBound).
func BenchmarkGateServe(b *testing.B) {
	for _, p := range servePoints {
		var run gateRun
		b.Run(p.String(), func(b *testing.B) {
			if run.repeat(b) {
				return
			}
			doc, qdoc := storesOfSize(p.Size, 3), storesOfSize(p.Size, 3)
			qs := workload.Generate(qdoc, workload.Config{Queries: 40, Keywords: 2, Seed: 17})
			if len(qs) == 0 {
				b.Fatal("empty workload")
			}
			yardIx := index.Build(qdoc)
			sc := shard.Build(doc, p.Shards)
			var backend serve.Backend = sc
			if p.Routed {
				// Two shard-server groups of one replica each on loopback.
				dir := b.TempDir()
				if err := ingest.Snapshot(dir, sc); err != nil {
					b.Fatal(err)
				}
				addrs, _ := startShardTier(b, dir, 2, 1)
				rt, err := remote.NewRouter(sc.Analysis(), ingest.SourceOf(sc), addrs)
				if err != nil {
					b.Fatal(err)
				}
				defer rt.Close()
				backend = rt
			}

			workers := runtime.GOMAXPROCS(0)
			clients := min(workers, 8)
			stream := workload.NewStream(qs, 1.3, 7).Take(24 * len(qs))
			opts := search.Options{DistinctAnchors: true, MaxResults: 25}
			coldSrv := serve.New(backend, serve.WithWorkers(workers), serve.WithCacheBytes(0))
			defer coldSrv.Close()
			warmSrv := serve.New(backend, serve.WithWorkers(workers))
			defer warmSrv.Close()
			for _, q := range qs {
				if _, err := warmSrv.Do(context.Background(), q.Text(), opts, 10); err != nil {
					b.Fatal(err)
				}
			}

			// pass replays the stream from every client and records each
			// op's latency.
			pass := func(srv *serve.Server, lat *telemetry.Histogram) {
				var next atomic.Int64
				var wg sync.WaitGroup
				for range clients {
					wg.Add(1)
					go func() {
						defer wg.Done()
						for i := int(next.Add(1)) - 1; i < len(stream); i = int(next.Add(1)) - 1 {
							start := time.Now()
							if _, err := srv.Do(context.Background(), stream[i].Text(), opts, 10); err != nil {
								b.Error(err)
								return
							}
							lat.Observe(time.Since(start))
						}
					}()
				}
				wg.Wait()
			}
			var coldLat, warmLat telemetry.Histogram
			ns := timeInterleaved(5, 20, nil,
				func() {
					for _, q := range qs {
						if lists := postingLists(yardIx, q.Keywords); lists != nil {
							search.SLCABaseline(lists...)
						}
					}
				},
				func() { pass(coldSrv, &coldLat) },
				func() { pass(warmSrv, &warmLat) })
			if b.Failed() {
				return
			}

			coldQPS := float64(len(stream)) / (float64(ns[1]) / 1e9)
			warm := float64(ns[1]) / float64(ns[2])
			coldP50 := time.Duration(coldLat.Snapshot().Quantile(0.5))
			tail := float64(warmLat.Snapshot().Quantile(0.99)) / float64(coldP50)
			work := coldQPS * float64(ns[0]) / 1e9
			run.report(b, warm, "warm/cold")
			run.report(b, tail, "warmp99/coldp50")
			run.report(b, work, "coldwork")
			run.report(b, float64(coldP50.Microseconds()), "coldp50-us")
			if err := bench.WarmBound().Check("warm over cold QPS", warm); err != nil {
				b.Error(err)
			}
			if g, ok := bench.TailBound(p); ok {
				if err := g.Check("warm p99 over cold p50", tail); err != nil {
					b.Error(err)
				}
			}
			if g, ok := bench.ColdWorkBound(p); ok {
				if err := g.Check("cold QPS times SLCA yardstick", work); err != nil {
					b.Error(err)
				}
			}
		})
	}
}

// reloadPoints are the delta-reload gate's points: where the full reload
// takes at least a millisecond and the delta's advantage clears the floor
// with room (a 10k snapshot reload is sub-millisecond fixed cost).
var reloadPoints = []struct {
	size   int
	source string
}{{10_000, "xml"}, {100_000, "xml"}, {100_000, "snapshot"}}

// BenchmarkGateReloadDelta: refreshing a served four-shard corpus after a
// one-entity edit, the full path (load the new generation, Reload) against
// the delta path (ReloadDelta from XML, ReloadSnapshot from a snapshot
// directory). Before every run the corpus is reset to the old generation,
// loaded the way a corpus serving that source is.
func BenchmarkGateReloadDelta(b *testing.B) {
	const shards = 4
	for _, p := range reloadPoints {
		var run gateRun
		b.Run(fmt.Sprintf("nodes=%d/%s", p.size, p.source), func(b *testing.B) {
			if run.repeat(b) {
				return
			}
			docA := storesOfSize(p.size, 11)
			xmlA := xmltree.XMLString(docA.Root)
			// The edit: one text value inside the third retailer flips, so
			// the cuts hold and exactly one shard's content moves.
			docB := storesOfSize(p.size, 11)
			mutated := false
			docB.Root.Children[2].Walk(func(n *xmltree.Node) bool {
				if !mutated && n.IsText() {
					n.Value, mutated = "zzzrestocked", true
				}
				return !mutated
			})
			xmlB := xmltree.XMLString(docB.Root)
			opts := []Option{WithShards(shards)}
			dir := b.TempDir()
			snapA, snapB := filepath.Join(dir, "a.xtsnap"), filepath.Join(dir, "b.xtsnap")
			for _, s := range []struct{ xml, dir string }{{xmlA, snapA}, {xmlB, snapB}} {
				c := must(LoadString(s.xml, opts...))
				if err := c.SaveSnapshot(s.dir); err != nil {
					b.Fatal(err)
				}
				c.Close()
			}

			c := must(LoadString(xmlA, opts...))
			defer c.Close()
			reset := func() {
				var fresh *Corpus
				var err error
				if p.source == "xml" {
					fresh, err = LoadString(xmlA, opts...)
				} else {
					fresh, err = LoadSnapshot(snapA)
				}
				if err != nil {
					b.Fatal(err)
				}
				c.Reload(fresh)
			}
			full := func() (*Corpus, error) { return LoadSnapshot(snapB) }
			delta := func() (DeltaStats, error) { return c.ReloadSnapshot(snapB) }
			if p.source == "xml" {
				full = func() (*Corpus, error) { return LoadString(xmlB, opts...) }
				delta = func() (DeltaStats, error) { return c.ReloadDelta(strings.NewReader(xmlB), opts...) }
			}

			// The point measures a one-shard delta or nothing.
			reset()
			if stats, err := delta(); err != nil || stats.Reused != shards-1 {
				b.Fatalf("delta reused %+v (err %v), want %d of %d shards", stats, err, shards-1, shards)
			}
			ns := timeInterleaved(10, 40, reset,
				func() { c.Reload(must(full())) },
				func() {
					if _, err := delta(); err != nil {
						b.Fatal(err)
					}
				})
			ratio := float64(ns[0]) / float64(ns[1])
			run.report(b, ratio, "full/delta")
			if err := bench.DeltaBound().Check("delta reload over full", ratio); err != nil {
				b.Fatal(err)
			}
		})
	}
}
