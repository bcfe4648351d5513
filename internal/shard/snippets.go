package shard

import (
	"context"
	"runtime"
	"slices"
	"sync/atomic"
	"time"

	"extract/internal/core"
	"extract/internal/faultinject"
	"extract/internal/index"
	"extract/internal/search"
	"extract/internal/telemetry"
)

// Answer is the serving layer's one call into a local corpus: the query's
// results (SearchEnginesContext, on engines built for this query) and, when
// bound >= 0, one snippet per result at that bound, aligned with them, made
// by the corpus's own generator (Snippets) — each its record with its XML
// rendered, inside the fan-out. bound < 0 is search only, with nil snippets.
// The duration of the fan-out is noted on the query's span sink, when ctx
// carries one.
func (sc *Corpus) Answer(ctx context.Context, query string, opts search.Options, run Runner, bound int) ([]*search.Result, []*core.Generated, error) {
	rs, err := sc.SearchEnginesContext(ctx, query, opts, nil, run)
	if err != nil || bound < 0 {
		return rs, nil, err
	}
	start := time.Now()
	gs, err := Snippets(ctx, run, sc.gen, rs, index.Tokenize(query), bound)
	if sink := telemetry.SpanSinkFrom(ctx); sink != nil {
		sink.NoteSnippets(time.Since(start))
	}
	if err != nil {
		return nil, nil, err
	}
	return rs, gs, nil
}

// snippetCheckpoint gates each generated snippet on cancellation and the
// SnippetGen fault-injection point.
func snippetCheckpoint(ctx context.Context) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	if faultinject.Enabled() {
		return faultinject.Fire(faultinject.SnippetGen)
	}
	return nil
}

// Snippets generates one snippet per result — the snippet fan-out of a local
// corpus's Answer. Each is the generator's served snippet
// (core.Generator.ServeResult): its record, with the XML, edges and key a
// result page reads, and nothing else — the feature statistics, the IList and
// the selection are working state of the derivation, derived in the worker's
// pooled scratch and never allocated per result. Output stays aligned with
// rs (fanOut).
func Snippets(ctx context.Context, run Runner, gen *core.Generator, rs []*search.Result, kws []string, bound int) ([]*core.Generated, error) {
	return fanOut(ctx, run, rs, func(r *search.Result) *core.Generated { return gen.ServeResult(r, kws, bound) })
}

// Records is Snippets for a shard server, which sends each snippet's record
// (core.Generator.Record) as it is and renders nothing.
func Records(ctx context.Context, run Runner, gen *core.Generator, rs []*search.Result, kws []string, bound int) ([]string, error) {
	return fanOut(ctx, run, rs, func(r *search.Result) string { return gen.Record(r, kws, bound) })
}

// fanOut makes one snippet per result with one. Snippets are independent
// and the generator is concurrency-safe, so up to GOMAXPROCS tasks, scheduled
// through run, each claim one result at a time from a shared cursor, largest
// result first: the one long job of a result list — a whole-document result
// among two dozen small ones — starts first and everything else packs around
// it, where a fixed split would queue half the list behind it. Output stays
// aligned with rs. A query cancelled during the fan-out stops between
// snippets and returns the context's error — a partially filled snippet set
// is never returned, so nothing incomplete can be cached.
func fanOut[T any](ctx context.Context, run Runner, rs []*search.Result, one func(*search.Result) T) ([]T, error) {
	out := make([]T, len(rs))
	if len(rs) < 4 {
		for i, r := range rs {
			if err := snippetCheckpoint(ctx); err != nil {
				return nil, err
			}
			out[i] = one(r)
		}
		return out, nil
	}
	order := largestFirst(rs)
	var cursor atomic.Int64
	tasks := make([]func(), min(runtime.GOMAXPROCS(0), len(rs)))
	errs := make([]error, len(tasks))
	for t := range tasks {
		tasks[t] = func() {
			for k := cursor.Add(1) - 1; k < int64(len(order)); k = cursor.Add(1) - 1 {
				if errs[t] = snippetCheckpoint(ctx); errs[t] != nil {
					return
				}
				i := order[k]
				out[i] = one(rs[i])
			}
		}
	}
	if err := Run(run, tasks); err != nil {
		return nil, err
	}
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	// A cancel that lands after every task has passed its last claim's
	// check still fails the query, as one landing a claim earlier would.
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return out, nil
}

// largestFirst returns the indexes of rs by decreasing result size, equal
// sizes in result order.
func largestFirst(rs []*search.Result) []int {
	order := make([]int, len(rs))
	for i := range order {
		order[i] = i
	}
	slices.SortStableFunc(order, func(a, b int) int { return rs[b].Size() - rs[a].Size() })
	return order
}
