package shard

import (
	"context"
	"runtime"
	"slices"
	"sync"
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
// by the corpus's own generator (Snippets) — each its XML, edges and key,
// rendered inside the fan-out. bound < 0 is search only, with nil snippets.
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
// (core.Generator.ServeResult): the XML, edges and key a result page reads,
// beside its result, from which a first read of its tree or IList derives
// them again — the feature statistics, the IList and the selection are
// working state of the derivation, derived in the worker's pooled scratch and
// never allocated per result, and no record is written. Output stays aligned
// with rs (fanOut).
func Snippets(ctx context.Context, run Runner, gen *core.Generator, rs []*search.Result, kws []string, bound int) ([]*core.Generated, error) {
	out := make([]*core.Generated, len(rs))
	if err := fanOut(ctx, run, rs, fanWidth(len(rs)), func(_, i int) { out[i] = gen.ServeResult(rs[i], kws, bound) }); err != nil {
		return nil, err
	}
	return out, nil
}

// Records is Snippets for a shard server, which sends each snippet's record
// (core.Generator.AppendRecord) as it was written and renders nothing: each
// fan-out task appends its results' records one after another into one
// pooled buffer, so no record is an allocation of its own. The caller copies
// them into its response and then releases the set (RecordSet.Release).
func Records(ctx context.Context, run Runner, gen *core.Generator, rs []*search.Result, kws []string, bound int) (*RecordSet, error) {
	width := fanWidth(len(rs))
	set := &RecordSet{bufs: make([]*[]byte, width), spans: make([]recordSpan, len(rs))}
	for t := range set.bufs {
		set.bufs[t] = recordBufs.Get().(*[]byte)
	}
	err := fanOut(ctx, run, rs, width, func(t, i int) {
		b := set.bufs[t]
		start := len(*b)
		*b = gen.AppendRecord(*b, rs[i], kws, bound)
		set.spans[i] = recordSpan{buf: t, start: start, end: len(*b)}
	})
	if err != nil {
		set.Release()
		return nil, err
	}
	return set, nil
}

// RecordSet is the snippet records of a result list, in result order
// (Records), or a run of them (Slice): spans of pooled buffers, one a
// fan-out task. A nil RecordSet is empty.
type RecordSet struct {
	bufs  []*[]byte
	spans []recordSpan
}

// RecordsOf returns a set of records written elsewhere — made by hand, or
// re-encoded from decoded snippets — copied into one buffer of the pool.
func RecordsOf(recs ...[]byte) *RecordSet {
	b := recordBufs.Get().(*[]byte)
	set := &RecordSet{bufs: []*[]byte{b}, spans: make([]recordSpan, len(recs))}
	for i, rec := range recs {
		start := len(*b)
		*b = append(*b, rec...)
		set.spans[i] = recordSpan{start: start, end: len(*b)}
	}
	return set
}

// recordSpan is where one record lies: bytes [start, end) of buffer buf.
type recordSpan struct{ buf, start, end int }

// recordBufs pools the buffers records are written into; keepRecords bounds
// the one a pool keeps, so one huge answer does not stay pinned.
var recordBufs = sync.Pool{New: func() any { return new([]byte) }}

const keepRecords = 1 << 20

// Len returns the number of records.
func (s *RecordSet) Len() int {
	if s == nil {
		return 0
	}
	return len(s.spans)
}

// At returns record i, in the set's buffer: valid until Release.
func (s *RecordSet) At(i int) []byte {
	sp := s.spans[i]
	return (*s.bufs[sp.buf])[sp.start:sp.end]
}

// Slice returns records [lo, hi) as a set of their own, over the same
// buffers: it is not released itself, and is valid as long as s is.
func (s *RecordSet) Slice(lo, hi int) *RecordSet {
	if s == nil {
		return nil
	}
	return &RecordSet{bufs: s.bufs, spans: s.spans[lo:hi:hi]}
}

// Release returns the buffers to their pool; no record of the set, or of a
// Slice of it, may be read afterwards.
func (s *RecordSet) Release() {
	if s == nil {
		return
	}
	for _, b := range s.bufs {
		if cap(*b) <= keepRecords {
			*b = (*b)[:0]
			recordBufs.Put(b)
		}
	}
	s.bufs, s.spans = nil, nil
}

// fanWidth is the number of tasks a fan-out over n results runs: one below
// four results or with one processor, where the results are made in order on
// the calling goroutine, and otherwise up to GOMAXPROCS.
func fanWidth(n int) int {
	if n < 4 {
		return 1
	}
	return min(runtime.GOMAXPROCS(0), n)
}

// fanOut makes one snippet per result, calling one(task, i) for result i on
// one of width tasks (fanWidth). Snippets are independent and the generator
// is concurrency-safe, so the tasks, scheduled through run, each claim one
// result at a time from a shared cursor, largest result first: the one long
// job of a result list — a whole-document result among two dozen small ones —
// starts first and everything else packs around it, where a fixed split
// would queue half the list behind it. A task's calls are never concurrent.
// A query cancelled during the fan-out stops between snippets and returns
// the context's error — a partially filled snippet set is never returned, so
// nothing incomplete can be cached.
func fanOut(ctx context.Context, run Runner, rs []*search.Result, width int, one func(task, i int)) error {
	if width == 1 {
		for i := range rs {
			if err := snippetCheckpoint(ctx); err != nil {
				return err
			}
			one(0, i)
		}
		return nil
	}
	order := largestFirst(rs)
	var cursor atomic.Int64
	tasks := make([]func(), width)
	errs := make([]error, width)
	for t := range tasks {
		tasks[t] = func() {
			for k := cursor.Add(1) - 1; k < int64(len(order)); k = cursor.Add(1) - 1 {
				if errs[t] = snippetCheckpoint(ctx); errs[t] != nil {
					return
				}
				one(t, order[k])
			}
		}
	}
	if err := Run(run, tasks); err != nil {
		return err
	}
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	// A cancel that lands after every task has passed its last claim's
	// check still fails the query, as one landing a claim earlier would.
	return ctx.Err()
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
