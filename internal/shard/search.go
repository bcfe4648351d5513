package shard

import (
	"context"
	"fmt"
	"runtime/debug"
	"slices"
	"sync"

	"extract/internal/faultinject"
	"extract/internal/index"
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
// takes. Every result comes with its tree, for callers that read them: a
// whole-document result's is built from the shards (search.Result.Tree),
// which the serving path (Answer) never asks for.
func (sc *Corpus) Search(query string, opts search.Options) ([]*search.Result, error) {
	ctx := context.Background()
	rs, _, err := sc.Answer(ctx, search.Parse(query), opts, nil, -1)
	for i := range rs {
		if err == nil {
			rs[i], err = rs[i].Tree(ctx)
		}
	}
	if err != nil {
		return nil, err
	}
	return rs, nil
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

// Engines builds one engine per shard for opts, in Shards() order. Nothing
// in the product calls it: a query builds its engines as it runs (an engine
// is a few fields, no scratch). It is kept only because benchmark/ times one
// shard's evaluation on a set it reuses.
func (sc *Corpus) Engines(opts search.Options) []*search.Engine {
	engines := make([]*search.Engine, len(sc.shards))
	for i, s := range sc.shards {
		engines[i] = s.Engine(opts)
	}
	return engines
}

// SearchEnginesContext is Answer, search only, over the query parsed here:
// Search with task scheduling, honoring ctx, and no trees built. engines is
// ignored, as the router's SearchEnginesContext ignores it; the form is kept
// only because benchmark/ calls it with a set.
func (sc *Corpus) SearchEnginesContext(ctx context.Context, query string, opts search.Options, engines []*search.Engine, run Runner) ([]*search.Result, error) {
	rs, _, err := sc.Answer(ctx, search.Parse(query), opts, run, -1)
	return rs, err
}

// search answers q for Answer: each shard polls Checkpoint before evaluating
// and the merge re-checks before round two, so a cancelled or expired query
// stops burning workers at the next checkpoint and returns the context's
// error. run schedules the per-shard evaluations; nil spawns one goroutine
// per shard.
func (sc *Corpus) search(ctx context.Context, q search.Query, opts search.Options, run Runner) ([]*search.Result, error) {
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
			rs, serr = sc.shards[0].Engine(opts).Search(q)
		}}); err != nil {
			return nil, err
		}
		return rs, serr
	}
	return Merge(ctx, opts, &localRounds{sc: sc, q: q, opts: opts, run: run}, LCAOf)
}

// LCAOf returns the position of r's LCA in its document: the key the merge's
// cut takes a shard's results by (AppendEarliest).
func LCAOf(r *search.Result) int32 { return int32(r.LCA.Ord) }

// localRounds is Merge's source of evidence for an in-process query: every
// round reads this corpus's own shards, and round two the posting lists
// round one resolved on each.
type localRounds struct {
	sc    *Corpus
	q     search.Query
	opts  search.Options
	run   Runner
	lists [][]*index.PostingList // per shard: round one's, for round two
}

func (r *localRounds) Eval(ctx context.Context) ([]Partial[*search.Result], error) {
	all := make([]int, len(r.sc.shards))
	for i := range all {
		all[i] = i
	}
	parts, lists, err := r.sc.EvalShards(ctx, r.q, r.opts, all, r.run)
	r.lists = lists
	return parts, err
}

// Whole composes round two from round one's partials and posting lists,
// inline, under panic recovery.
func (r *localRounds) Whole(ctx context.Context, parts []Partial[*search.Result], rootLCA bool) ([]*search.Result, error) {
	var rs []*search.Result
	if err := Recover(func() { rs = r.sc.roundTwo(r.q, r.opts, parts, r.lists, rootLCA) }); err != nil {
		return nil, err
	}
	return rs, nil
}

// EvalShards is the per-shard half of Merge's round one, for the listed
// shards of a corpus (a shard server's for any shard count, the local merge's
// from two shards up): element k of the answer is shards[k]'s Partial, and of
// lists shards[k]'s posting lists of the query's terms (a whole-document
// result of round two reads them). Every listed shard evaluates with its root
// filtered out of the LCA set, stopping early once the result bound is
// provably filled (search.Engine.Evaluate), and digests what it found; a
// shard missing a query keyword stops after its posting-list lookups. The
// evaluations are scheduled through run, each behind a Checkpoint, and every
// shard's engine, built for this query, reads the one parse q.
func (sc *Corpus) EvalShards(ctx context.Context, q search.Query, opts search.Options, shards []int, run Runner) (parts []Partial[*search.Result], lists [][]*index.PostingList, err error) {
	if len(q.Terms) == 0 {
		return nil, nil, search.ErrEmptyQuery
	}
	parts, lists = make([]Partial[*search.Result], len(shards)), make([][]*index.PostingList, len(shards))
	errs := make([]error, len(shards))
	tasks := make([]func(), len(shards))
	for k, i := range shards {
		eng, root := sc.shards[i].Engine(opts), sc.shards[i].Doc.Root
		tasks[k] = func() { parts[k], lists[k], errs[k] = evalShard(ctx, eng, root, q) }
	}
	if err := Run(run, tasks); err != nil {
		return nil, nil, err
	}
	for _, err := range errs {
		if err != nil {
			return nil, nil, err
		}
	}
	return parts, lists, nil
}

// evalShard is one shard's round one, behind a Checkpoint: its Partial and
// its posting lists of the query's terms.
func evalShard(ctx context.Context, eng *search.Engine, root *xmltree.Node, q search.Query) (Partial[*search.Result], []*index.PostingList, error) {
	if err := Checkpoint(ctx); err != nil {
		return Partial[*search.Result]{}, nil, err
	}
	// The local LCA set minus the shard root is — under contiguous
	// partitioning — exactly this shard's slice of the global non-root LCA
	// set.
	ev, results, err := eng.Evaluate(q, func(n *xmltree.Node) bool { return n != root })
	if err != nil {
		return Partial[*search.Result]{}, nil, err
	}
	rootAnchored := slices.ContainsFunc(results,
		func(r *search.Result) bool { return r.Anchor == root })
	return Partial[*search.Result]{Digest: NewDigest(ev, rootAnchored), Results: results}, ev.Lists, nil
}
