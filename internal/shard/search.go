package shard

import (
	"context"
	"fmt"
	"runtime/debug"
	"slices"
	"sync"

	"extract/internal/core"
	"extract/internal/faultinject"
	"extract/internal/index"
	"extract/internal/search"
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
// per shard. Round one yields hits, and only the merge's winners are built
// (Round.Build), under panic recovery — unless reuse, when not nil, accepts
// them and the merge took no round two: then nothing is built, and search
// reports reused with no results.
func (sc *Corpus) search(ctx context.Context, q search.Query, opts search.Options, run Runner, reuse func([]search.Hit) bool) ([]*search.Result, bool, error) {
	switch len(sc.shards) {
	case 0:
		return nil, false, search.ErrEmptyQuery
	case 1:
		// One shard: the lone engine's own Search, with no digest or merge in
		// the way — the direct-engine reference path every multi-shard
		// answer is pinned byte-identical to, so it stays a separate branch.
		// Carries accepts nothing here, so nothing is reused.
		var rs []*search.Result
		var serr error
		if err := Run(run, []func(){func() {
			if serr = Checkpoint(ctx); serr != nil {
				return
			}
			rs, serr = sc.shards[0].Engine(opts).Search(q)
		}}); err != nil {
			return nil, false, err
		}
		return rs, false, serr
	}
	rounds := &localRounds{sc: sc, q: q, opts: opts, run: run}
	hits, err := Merge(ctx, opts, rounds, HitLCA)
	if err != nil {
		return nil, false, err
	}
	if reuse != nil && !rounds.whole && reuse(hits) {
		return nil, true, nil
	}
	var rs []*search.Result
	if err := Recover(func() { rs = rounds.one.Build(nil, hits) }); err != nil {
		return nil, false, err
	}
	return rs, false, nil
}

// wholeHit is the Shard of a hit anchored at the document root of a
// root-involving answer, which round two folds (Corpus.roundTwo): its anchor
// is 0 and its LCA a global position (index.Whole). Every other hit of a
// sharded query carries the shard holding it, and positions there.
const wholeHit = -1

// HitLCA returns the position of h's LCA in its shard: the key the merge's
// cut takes a shard's hits by (AppendEarliest).
func HitLCA(h search.Hit) int32 { return h.LCA }

// Round is round one of a query on some shards of a corpus (EvalShards):
// each listed shard's engine and evaluation, indexed by shard, which is what
// building a hit of that shard reads.
type Round struct {
	sc     *Corpus
	q      search.Query
	opts   search.Options
	shards []evaluated // by shard; zero for a shard not listed
}

// evaluated is one shard's share of a Round.
type evaluated struct {
	eng *search.Engine
	ev  *search.Evaluation
}

// Build appends to dst the results of hits — an answer's, or any of the
// round's own — in their order: each shard's on the engine that evaluated it
// (search.Engine.Build), one call for each run of hits of one shard; a
// wholeHit as WholeResult, over the posting lists of every shard's
// evaluation, which only a round on every shard holds, as the local merge's
// does. A hit of a shard the round did not list panics.
func (r *Round) Build(dst []*search.Result, hits []search.Hit) []*search.Result {
	var lists [][]*index.PostingList // every shard's, once a call
	for len(hits) > 0 {
		s := hits[0].Shard
		if s == wholeHit {
			if lists == nil {
				lists = make([][]*index.PostingList, len(r.shards))
				for i, e := range r.shards {
					lists[i] = e.ev.Lists
				}
			}
			dst, hits = append(dst, r.sc.WholeResult(r.q, r.opts, hits[0].LCA, lists)), hits[1:]
			continue
		}
		n := 1
		for n < len(hits) && hits[n].Shard == s {
			n++
		}
		e := r.shards[s]
		dst, hits = e.eng.Build(dst, e.ev, hits[:n]), hits[n:]
	}
	return dst
}

// Shipped is search.Engine.Shipped for a hit of a shard the round lists, on
// the engine and evaluation that found it: the node count of the result the
// hit yields and, in depths (a slot a query term), its match depths — what a
// shard server ships of a result, with nothing built but a ModeXSeek
// projection.
func (r *Round) Shipped(h search.Hit, depths []int) int {
	e := r.shards[h.Shard]
	return e.eng.Shipped(e.ev, h, depths)
}

// localRounds is Merge's source of evidence for an in-process query: every
// round reads this corpus's own shards, and round two the hits of round one
// and its evaluations' posting lists.
type localRounds struct {
	sc    *Corpus
	q     search.Query
	opts  search.Options
	run   Runner
	one   *Round // round one on every shard, which builds the answer
	whole bool   // the merge took round two
}

func (r *localRounds) Eval(ctx context.Context) ([]Partial[search.Hit], error) {
	all := make([]int, len(r.sc.shards))
	for i := range all {
		all[i] = i
	}
	parts, one, err := r.sc.EvalShards(ctx, r.q, r.opts, all, r.run)
	r.one = one
	return parts, err
}

// Whole composes round two from round one's partials, inline, under panic
// recovery.
func (r *localRounds) Whole(ctx context.Context, parts []Partial[search.Hit], rootLCA bool) ([]search.Hit, error) {
	var hits []search.Hit
	r.whole = true
	if err := Recover(func() { hits = r.sc.roundTwo(r.opts, parts, rootLCA) }); err != nil {
		return nil, err
	}
	return hits, nil
}

// Carries returns which cached answers of prev a swap onto sc may keep, to be
// re-proved on their first lookup (Reanswer): nil when none may — sc has
// one shard (answered without a merge, and rebuilt by any delta that changes
// the document), sc adopted no shard of prev (a full reload), or the shard
// counts or the analyses (classification and keys) differ — else a test
// accepting an answer whose every result is a view of a shard sc adopted
// from prev, the same Index (BuildFrom, a snapshot delta), and none a
// whole-document result or an owned tree. Such an answer's results, and its
// snippets, which read only them and the analysis, are byte for byte what
// sc builds for the same hits.
func (sc *Corpus) Carries(prev *Corpus) func(rs []*search.Result) bool {
	if prev == nil || len(sc.shards) < 2 || len(prev.shards) != len(sc.shards) || !sc.cls.Equal(prev.cls) || !sc.keys.Equal(prev.keys) ||
		!slices.ContainsFunc(prev.shards, func(s *core.Corpus) bool { return sc.shardOf(s.Index) >= 0 }) {
		return nil
	}
	return func(rs []*search.Result) bool {
		for _, r := range rs {
			if sc.shardOf(r.Index) < 0 {
				return false
			}
		}
		return true
	}
}

// shardOf returns the shard whose index ix is, -1 for none — for a result's
// Index, nil on a whole-document result and an owned tree.
func (sc *Corpus) shardOf(ix *index.Index) int {
	if ix != nil {
		for i, s := range sc.shards {
			if s.Index == ix {
				return i
			}
		}
	}
	return -1
}

// same reports whether rs are exactly the results of hits: shard, anchor and
// LCA, a result's shard known by its Index.
func (sc *Corpus) same(hits []search.Hit, rs []*search.Result) bool {
	if len(hits) != len(rs) {
		return false
	}
	for i, h := range hits {
		r := rs[i]
		if h.Shard != int32(sc.shardOf(r.Index)) || h.Anchor != int32(r.Anchor.Ord) || h.LCA != int32(r.LCA.Ord) {
			return false
		}
	}
	return true
}

// EvalShards is the per-shard half of Merge's round one, for the listed
// shards of a corpus (a shard server's for any shard count, the local merge's
// from two shards up): element k of parts is shards[k]'s Partial, whose
// Results are its hits, each carrying its shard, and round is what builds
// any of them (Round.Build). Every listed shard evaluates with its root
// filtered out of the LCA set (by its position, 0), stopping early once the
// result bound is provably filled (search.Engine.Evaluate), and digests what
// it found; a shard missing a query keyword stops after its posting-list
// lookups. Nothing is built: the merge's cut (MergeResults, a shard server's
// trim) decides which hits become results. The evaluations are scheduled
// through run, each behind a Checkpoint, and every shard's engine, built for
// this query, reads the one parse q.
func (sc *Corpus) EvalShards(ctx context.Context, q search.Query, opts search.Options, shards []int, run Runner) (parts []Partial[search.Hit], round *Round, err error) {
	if len(q.Terms) == 0 {
		return nil, nil, search.ErrEmptyQuery
	}
	round = &Round{sc: sc, q: q, opts: opts, shards: make([]evaluated, len(sc.shards))}
	parts = make([]Partial[search.Hit], len(shards))
	errs := make([]error, len(shards))
	tasks := make([]func(), len(shards))
	for k, i := range shards {
		e := &round.shards[i]
		e.eng = sc.shards[i].Engine(opts)
		tasks[k] = func() { parts[k], e.ev, errs[k] = evalShard(ctx, e.eng, int32(i), q) }
	}
	if err := Run(run, tasks); err != nil {
		return nil, nil, err
	}
	for _, err := range errs {
		if err != nil {
			return nil, nil, err
		}
	}
	return parts, round, nil
}

// evalShard is shard i's round one, behind a Checkpoint: its Partial, its
// hits stamped with i, and its evaluation. The local LCA set minus the shard
// root is — under contiguous partitioning — exactly this shard's slice of the
// global non-root LCA set.
func evalShard(ctx context.Context, eng *search.Engine, i int32, q search.Query) (Partial[search.Hit], *search.Evaluation, error) {
	if err := Checkpoint(ctx); err != nil {
		return Partial[search.Hit]{}, nil, err
	}
	ev, hits, err := eng.Evaluate(q, func(lca int32) bool { return lca != 0 }) // the root is at 0
	if err != nil {
		return Partial[search.Hit]{}, nil, err
	}
	rootAnchored := false
	for j := range hits {
		hits[j].Shard = i
		rootAnchored = rootAnchored || hits[j].Anchor == 0
	}
	return Partial[search.Hit]{Digest: NewDigest(ev, rootAnchored), Results: hits}, ev, nil
}
