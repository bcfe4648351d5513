package shard

import (
	"context"
	"fmt"
	"runtime/debug"
	"slices"
	"sync"

	"extract/internal/faultinject"
	"extract/internal/search"
	"extract/xmltree"
)

// Search evaluates a conjunctive keyword query across the shards in
// parallel and merges the per-shard results into global document order
// through a bounded top-k merge (see Merge, the protocol every sharded
// answer — local or routed — is computed by). The result set is identical to
// evaluating the same query on the whole document as one shard (see the
// equivalence property tests); opts carry the same semantics,
// construction-mode, distinct-anchor and max-results options a search.Engine
// takes.
func (sc *Corpus) Search(query string, opts search.Options) ([]*search.Result, error) {
	return sc.SearchEnginesContext(context.Background(), query, opts, nil, nil)
}

// Runner executes a batch of independent tasks, returning when all of them
// have completed, with every task under panic recovery: the returned error
// is the first *PanicError recovered from the batch (nil when every task
// ran cleanly). The serving layer passes a fixed-size worker pool here so
// per-shard evaluation stops spawning one goroutine per shard per query;
// nil runs each task on its own goroutine.
type Runner func(tasks []func()) error

// PanicError is a panic recovered from query evaluation or snippet
// generation, converted into a per-query error: one panicking shard fails
// its query, never the process. Value is the recovered panic value and
// Stack the stack at recovery, for server-side logging.
type PanicError struct {
	Value any
	Stack []byte
}

func (e *PanicError) Error() string {
	return fmt.Sprintf("panic during query evaluation: %v", e.Value)
}

// Recover runs fn, converting a panic into a *PanicError. Runner
// implementations wrap every task with it, whether the task runs on a
// worker or inline on the submitting goroutine.
func Recover(fn func()) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = &PanicError{Value: r, Stack: debug.Stack()}
		}
	}()
	fn()
	return nil
}

// Checkpoint is the cancellation gate evaluation loops poll between units
// of work: it reports the context's error once the query is cancelled or
// past its deadline, and fires the ShardEval fault-injection point so
// robustness tests can crash, slow, or fail a shard here.
func Checkpoint(ctx context.Context) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	if faultinject.Enabled() {
		return faultinject.Fire(faultinject.ShardEval)
	}
	return nil
}

// Run schedules a batch of independent tasks through run — nil runs each on
// its own goroutine — with every task under panic recovery either way. It is
// the one scheduler of a query's fan-out: per-shard evaluation here, and the
// distributed router's remote calls and result builds.
func Run(run Runner, tasks []func()) error {
	if len(tasks) == 0 {
		return nil
	}
	if run == nil {
		run = runGoroutines
	}
	return run(tasks)
}

// runGoroutines is the default Runner: one goroutine per task.
func runGoroutines(tasks []func()) error {
	if len(tasks) == 1 {
		return Recover(tasks[0])
	}
	var wg sync.WaitGroup
	var box ErrBox
	wg.Add(len(tasks))
	for _, t := range tasks {
		go func(f func()) {
			defer wg.Done()
			box.Put(Recover(f))
		}(t)
	}
	wg.Wait()
	return box.First()
}

// ErrBox collects the first error of one task batch across the goroutines
// executing it. Runner implementations (runGoroutines here, serve's worker
// pool) share it.
type ErrBox struct {
	mu  sync.Mutex
	err error
}

// Put records err if it is the batch's first; nil is ignored.
func (b *ErrBox) Put(err error) {
	if err == nil {
		return
	}
	b.mu.Lock()
	if b.err == nil {
		b.err = err
	}
	b.mu.Unlock()
}

// First returns the first error recorded, nil when every task was clean.
func (b *ErrBox) First() error {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.err
}

// Engines builds one engine per shard for opts, in Shards() order — the
// engine set SearchEnginesContext accepts. The serving layer memoizes one set
// per option combination (shard.Corpus satisfies serve.Backend with it).
func (sc *Corpus) Engines(opts search.Options) []*search.Engine {
	engines := make([]*search.Engine, len(sc.shards))
	for i, s := range sc.shards {
		engines[i] = s.Engine(opts)
	}
	return engines
}

// engine picks shard i's engine out of a caller-managed set, or builds a
// throwaway one when there is none.
func (sc *Corpus) engine(engines []*search.Engine, i int, opts search.Options) *search.Engine {
	if engines != nil {
		return engines[i]
	}
	return sc.shards[i].Engine(opts)
}

// SearchEnginesContext is Search with caller-managed per-shard engines and
// task scheduling, honoring ctx: each shard polls Checkpoint before
// evaluating and the merge re-checks before the cross-shard fallback, so a
// cancelled or expired query stops burning workers at the next checkpoint
// and returns the context's error. engines, when non-nil, must be aligned
// with Shards() and built over the same options (the serving layer caches
// one engine set per option combination and reuses it across queries); nil
// builds throwaway engines. run schedules the per-shard evaluations; nil
// spawns one goroutine per shard.
func (sc *Corpus) SearchEnginesContext(ctx context.Context, query string, opts search.Options, engines []*search.Engine, run Runner) ([]*search.Result, error) {
	switch len(sc.shards) {
	case 0:
		return nil, search.ErrEmptyQuery
	case 1:
		// One shard: the lone engine's own Search, with no digest or merge in
		// the way — the direct-engine reference path every multi-shard
		// answer is pinned byte-identical to, so it stays a separate branch.
		var rs []*search.Result
		var serr error
		if err := Run(run, []func(){func() {
			if serr = Checkpoint(ctx); serr != nil {
				return
			}
			rs, serr = sc.engine(engines, 0, opts).Search(query)
		}}); err != nil {
			return nil, err
		}
		return rs, serr
	}
	return Merge(ctx, opts, localRounds{sc, query, opts, engines, run})
}

// localRounds is Merge's source of evidence for an in-process query: every
// round reads this corpus's own shards.
type localRounds struct {
	sc      *Corpus
	query   string
	opts    search.Options
	engines []*search.Engine
	run     Runner
}

func (r localRounds) Eval(ctx context.Context) ([]Partial[*search.Result], error) {
	all := make([]int, len(r.sc.shards))
	for i := range all {
		all[i] = i
	}
	return r.sc.EvalShards(ctx, r.query, r.opts, all, r.engines, r.run)
}

func (r localRounds) Whole(ctx context.Context) ([]*search.Result, error) {
	return r.sc.SearchWhole(ctx, r.query, r.opts)
}

// EvalShards is the per-shard half of Merge's round one, for the listed
// shards of a corpus (a shard server's for any shard count, the local merge's
// from two shards up): element k of the answer is shards[k]'s Partial. Every
// listed shard evaluates with its root filtered out of the LCA set, stopping
// early once the result bound is provably filled (search.EvaluateResults),
// and digests what it found; a shard missing a query keyword stops after its
// posting-list lookups. The evaluations are scheduled through run, each
// behind a Checkpoint. engines is as for SearchEnginesContext.
func (sc *Corpus) EvalShards(ctx context.Context, query string, opts search.Options, shards []int, engines []*search.Engine, run Runner) ([]Partial[*search.Result], error) {
	if len(search.ParseQuery(query)) == 0 {
		return nil, search.ErrEmptyQuery
	}
	parts := make([]Partial[*search.Result], len(shards))
	errs := make([]error, len(shards))
	tasks := make([]func(), len(shards))
	for k, i := range shards {
		eng, root := sc.engine(engines, i, opts), sc.shards[i].Doc.Root
		tasks[k] = func() { parts[k], errs[k] = evalShard(ctx, eng, root, query) }
	}
	if err := Run(run, tasks); err != nil {
		return nil, err
	}
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return parts, nil
}

// evalShard is one shard's round one, behind a Checkpoint.
func evalShard(ctx context.Context, eng *search.Engine, root *xmltree.Node, query string) (Partial[*search.Result], error) {
	if err := Checkpoint(ctx); err != nil {
		return Partial[*search.Result]{}, err
	}
	// The local LCA set minus the shard root is — under contiguous
	// partitioning — exactly this shard's slice of the global non-root LCA
	// set.
	ev, results, err := eng.EvaluateResults(query,
		func(n *xmltree.Node) bool { return n != root })
	if err != nil {
		return Partial[*search.Result]{}, err
	}
	rootAnchored := slices.ContainsFunc(results,
		func(r *search.Result) bool { return r.Anchor == root })
	return Partial[*search.Result]{Digest: NewDigest(ev, rootAnchored), Results: results}, nil
}

// SearchWhole is Merge's round two: the query evaluated on the lazily
// reconstructed whole document (Fallback), which is exact by construction
// for the root-involving queries no per-shard answer can express. It runs
// inline behind a Checkpoint, under panic recovery.
func (sc *Corpus) SearchWhole(ctx context.Context, query string, opts search.Options) (rs []*search.Result, err error) {
	if perr := Recover(func() {
		if err = Checkpoint(ctx); err != nil {
			return
		}
		fb := sc.Fallback()
		rs, err = search.NewEngine(fb.Doc, fb.Index, sc.cls, opts).Search(query)
	}); perr != nil {
		return nil, perr
	}
	return rs, err
}
