package bench

import (
	"fmt"
	"runtime"
	"strings"
	"time"

	"extract/internal/core"
	"extract/internal/features"
	"extract/internal/ilist"
	"extract/internal/index"
	"extract/internal/search"
	"extract/internal/selector"
	"extract/internal/workload"
	"extract/xmltree"
)

// SearchPerfPoint is one row of the search→snippet hot-path trajectory:
// before/after timings of the flattened code paths at one corpus size.
// "Before" runs the retained baseline implementations (SLCABaseline,
// ELCABaseline, collectBaseline, and a per-snippet index rebuild standing
// in for the old instance finder); "after" runs the packed/interned paths
// the engine uses today.
type SearchPerfPoint struct {
	Nodes    int    `json:"nodes"`
	Keywords string `json:"keywords"`

	SLCABeforeNs int64   `json:"slca_before_ns"`
	SLCAAfterNs  int64   `json:"slca_after_ns"`
	SLCASpeedup  float64 `json:"slca_speedup"`

	ELCABeforeNs int64   `json:"elca_before_ns"`
	ELCAAfterNs  int64   `json:"elca_after_ns"`
	ELCASpeedup  float64 `json:"elca_speedup"`

	// Result construction for every LCA of the point's query: the frozen
	// copy-and-refinalize construction (resultsBaseline) against the
	// engine's views.
	ResultBeforeNs int64   `json:"result_before_ns"`
	ResultAfterNs  int64   `json:"result_after_ns"`
	ResultSpeedup  float64 `json:"result_speedup"`

	CollectBeforeNs int64   `json:"collect_before_ns"`
	CollectAfterNs  int64   `json:"collect_after_ns"`
	CollectSpeedup  float64 `json:"collect_speedup"`

	SnippetBeforeNs int64   `json:"snippet_before_ns"`
	SnippetAfterNs  int64   `json:"snippet_after_ns"`
	SnippetSpeedup  float64 `json:"snippet_speedup"`

	// collect_after_ns and snippet_after_ns run on an owned copy of the
	// result, which has no index: its columns are filled into scratch and
	// its keywords found by a scan. These two time the same result as a
	// view of an indexed corpus, the way a served query meets it — the fold
	// over the index's columns alone, and Generator.ForResult.
	CollectViewNs int64 `json:"collect_view_ns"`
	SnippetViewNs int64 `json:"snippet_view_ns"`

	QueryNs int64 `json:"query_end_to_end_ns"`
}

// SearchPerfReport is the payload of BENCH_search.json.
type SearchPerfReport struct {
	Suite     string            `json:"suite"`
	GoVersion string            `json:"go_version"`
	Note      string            `json:"note"`
	Points    []SearchPerfPoint `json:"points"`

	// Persist is the persist-load trajectory (benchrunner -persist); kept
	// in the same file so the CI bench gate reads one committed baseline.
	Persist []PersistPerfPoint `json:"persist,omitempty"`

	// Serve is the serving-layer throughput trajectory (benchrunner
	// -serve): concurrent QPS against sharded corpora, cold vs warm query
	// cache.
	Serve []ServePerfPoint `json:"serve,omitempty"`

	// Reload is the refresh trajectory (benchrunner -reload): full versus
	// delta reload time after a one-entity edit.
	Reload []ReloadPerfPoint `json:"reload,omitempty"`
}

// timeIt returns fn's duration in nanoseconds: the minimum of three batch
// means, which discards scheduler and GC noise spikes on busy machines. A
// warm-up run and a forced GC before each batch keep one measurement's
// garbage from being charged to the next; the repetition count adapts so
// every batch gets ~80ms of measured time regardless of the metric's cost.
func timeIt(minReps int, fn func()) int64 {
	fn() // warm-up
	runtime.GC()
	start := time.Now()
	fn()
	est := time.Since(start)
	reps := int(80 * time.Millisecond / (est + 1))
	if reps < minReps {
		reps = minReps
	}
	if reps > 10000 {
		reps = 10000
	}
	best := int64(0)
	for batch := 0; batch < 3; batch++ {
		runtime.GC()
		start = time.Now()
		for i := 0; i < reps; i++ {
			fn()
		}
		mean := time.Since(start).Nanoseconds() / int64(reps)
		if best == 0 || mean < best {
			best = mean
		}
	}
	return best
}

func speedup(before, after int64) float64 {
	if after == 0 {
		return 0
	}
	return float64(before) / float64(after)
}

// SearchPerf measures the search→snippet hot path before/after the
// flat-array rewrite at the given corpus sizes (default 1k/10k/100k).
func SearchPerf(sizes []int) *SearchPerfReport {
	if len(sizes) == 0 {
		sizes = []int{1_000, 10_000, 100_000}
	}
	r := &SearchPerfReport{
		Suite:     "search-snippet-hot-path",
		GoVersion: runtime.Version(),
		Note: "before = retained baseline implementations (SLCABaseline/ELCABaseline/" +
			"collectBaseline + per-snippet index rebuild, as shipped before the " +
			"flat-array rewrite); after = packed posting lists, linear SLCA, " +
			"shortest-list-driven interval-counting ELCA, interned single-walk " +
			"collection. result_* builds " +
			"the results of every LCA of the point's query: before = deep copy + " +
			"re-finalize + linear match filter per LCA, after = views of the " +
			"corpus document. snippet_* is the " +
			"E4 shape (bound 10); query_end_to_end_ns is search + one snippet per " +
			"result on the same corpus.",
	}
	for _, size := range sizes {
		p := SearchPerfPoint{}
		reps := 3

		// --- SLCA / ELCA on the E10 shape.
		doc := storesCorpusOfSize(size, 3)
		p.Nodes = doc.Len()
		ix := index.Build(doc)
		qs := searchPerfQueries(doc, ix)
		if len(qs) > 0 {
			kws := qs[0]
			p.Keywords = strings.Join(kws, " ")
			lists := make([][]*xmltree.Node, len(kws))
			packed := make([]*index.PostingList, len(kws))
			for i, kw := range kws {
				lists[i] = ix.Nodes(kw)
				packed[i] = ix.List(kw)
			}
			p.SLCABeforeNs = timeIt(reps, func() { search.SLCABaseline(lists...) })
			p.SLCAAfterNs = timeIt(reps, func() { search.SLCAPacked(packed...) })
			p.SLCASpeedup = speedup(p.SLCABeforeNs, p.SLCAAfterNs)
			p.ELCABeforeNs = timeIt(reps, func() { search.ELCABaseline(lists...) })
			p.ELCAAfterNs = timeIt(reps, func() { search.ELCAPacked(packed...) })
			p.ELCASpeedup = speedup(p.ELCABeforeNs, p.ELCAAfterNs)

			// --- Result construction for that query's LCA set.
			eng := search.NewEngine(doc, ix, nil, search.Options{DistinctAnchors: true})
			ev, err := eng.Evaluate(p.Keywords)
			if err != nil {
				panic(err)
			}
			p.ResultBeforeNs = timeIt(reps, func() { resultsBaseline(ev, eng.Classification()) })
			p.ResultAfterNs = timeIt(reps, func() { eng.Results(ev, ev.LCAs) })
			p.ResultSpeedup = speedup(p.ResultBeforeNs, p.ResultAfterNs)
		}

		// --- Collect and full snippet generation on the E4 shape.
		result := resultOfSize(size)
		corpus := core.BuildCorpus(storesCorpusOfSize(size, 1))
		kws := index.Tokenize(perfQuery)
		p.CollectBeforeNs = timeIt(reps, func() {
			collectBaseline(result.Root, corpus.Cls)
		})
		col := features.NewCollector(corpus.Cls)
		p.CollectAfterNs = timeIt(reps, func() { col.CollectResult(nil, result) })
		p.CollectSpeedup = speedup(p.CollectBeforeNs, p.CollectAfterNs)

		// The IList builder and the selector read a features.Stats, which
		// the frozen collector cannot produce: it is timed for its own
		// cost and the stages after it run on the result's real statistics.
		stats := col.CollectResult(nil, result)
		p.SnippetBeforeNs = timeIt(reps, func() {
			index.Build(result) // the old instance finder indexed the result per snippet
			collectBaseline(result.Root, corpus.Cls)
			il := ilist.Build(result.Root, kws, corpus.Cls, corpus.Keys, stats)
			selector.Greedy(result, il, corpus.Cls, stats, 10)
		})
		g := core.NewGenerator(corpus)
		p.SnippetAfterNs = timeIt(reps, func() { g.ForTreeTokens(result, kws, 10) })
		p.SnippetSpeedup = speedup(p.SnippetBeforeNs, p.SnippetAfterNs)

		source := resultSourceOfSize(size)
		view := search.FromNode(source, source.Root.ChildElement("retailer"))
		view.Index = index.Build(source)
		p.CollectViewNs = timeIt(reps, func() { col.CollectResult(view.Index, view.Doc) })
		p.SnippetViewNs = timeIt(reps, func() { g.ForResultTokens(view, kws, 10) })

		// --- End-to-end query (search + snippets) on the E10 corpus.
		qcorpus := core.BuildCorpus(doc)
		if len(qs) > 0 {
			query := strings.Join(qs[0], " ")
			p.QueryNs = timeIt(reps, func() {
				if _, err := core.Pipeline(qcorpus, query, 10,
					search.Options{DistinctAnchors: true}); err != nil {
					panic(err)
				}
			})
		}
		r.Points = append(r.Points, p)
	}
	return r
}

// searchPerfQueries yields keyword sets with non-empty posting lists, the
// E10 workload shape.
func searchPerfQueries(doc *xmltree.Document, ix *index.Index) [][]string {
	var out [][]string
	for _, q := range workload.Generate(doc, workload.Config{Queries: 5, Keywords: 3, Seed: 7}) {
		ok := true
		for _, kw := range q.Keywords {
			if ix.Count(kw) == 0 {
				ok = false
				break
			}
		}
		if ok {
			out = append(out, q.Keywords)
		}
	}
	return out
}

// WriteSearchPerf runs the suite and writes BENCH_search.json-style output,
// preserving the other sections already recorded in the file.
func WriteSearchPerf(path string, sizes []int) (*SearchPerfReport, error) {
	r := SearchPerf(sizes)
	if prev, err := ReadReport(path); err == nil {
		r.Persist = prev.Persist
		r.Serve = prev.Serve
		r.Reload = prev.Reload
	}
	if err := WriteReport(path, r); err != nil {
		return nil, err
	}
	return r, nil
}

// Render prints a human summary of the report.
func (r *SearchPerfReport) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "## search→snippet hot path (%s)\n\n", r.GoVersion)
	fmt.Fprintf(&b, "| nodes | slca before/after (ms) | x | elca (ms) | x | results (ms) | x | collect (ms) | x | snippet (ms) | x | as a view: collect / snippet (ms) | query (ms) |\n")
	fmt.Fprintf(&b, "|---|---|---|---|---|---|---|---|---|---|---|---|---|\n")
	ms := func(ns int64) string { return fmt.Sprintf("%.3f", float64(ns)/1e6) }
	for _, p := range r.Points {
		fmt.Fprintf(&b, "| %d | %s / %s | %.1f | %s / %s | %.1f | %s / %s | %.1f | %s / %s | %.1f | %s / %s | %.1f | %s / %s | %s |\n",
			p.Nodes,
			ms(p.SLCABeforeNs), ms(p.SLCAAfterNs), p.SLCASpeedup,
			ms(p.ELCABeforeNs), ms(p.ELCAAfterNs), p.ELCASpeedup,
			ms(p.ResultBeforeNs), ms(p.ResultAfterNs), p.ResultSpeedup,
			ms(p.CollectBeforeNs), ms(p.CollectAfterNs), p.CollectSpeedup,
			ms(p.SnippetBeforeNs), ms(p.SnippetAfterNs), p.SnippetSpeedup,
			ms(p.CollectViewNs), ms(p.SnippetViewNs),
			ms(p.QueryNs))
	}
	return b.String()
}
