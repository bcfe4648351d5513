package shard

import (
	"context"
	"fmt"
	"runtime/debug"
	"sync"

	"extract/internal/faultinject"
	"extract/internal/search"
	"extract/xmltree"
)

// Search evaluates a conjunctive keyword query across the shards in
// parallel and merges the per-shard results into global document order
// through a bounded top-k merge. Shards whose keyword-presence prefilter
// (index.Prefilter) proves a query token absent are skipped before any
// posting list is touched or pool work dispatched — a skip is always
// sound, since such a shard can contain no local result — and per-shard
// evaluation stops early once the result bound is provably filled
// (search.EvaluateResults). The result set is identical to evaluating
// the same query on the whole document as one shard (see the equivalence
// property tests); opts carry the same semantics, construction-mode,
// distinct-anchor and max-results options a search.Engine takes.
//
// Merging is root-aware. Any non-root SLCA/ELCA lies entirely inside one
// shard, so the union of per-shard LCA sets (minus shard roots) is exactly
// the global non-root LCA set. The root itself can only qualify through
// cross-shard evidence, which the merge decides from the per-shard posting
// lists:
//
//   - SLCA: the root is the (sole) answer iff no shard produced a non-root
//     SLCA and every keyword matches somewhere in the corpus.
//   - ELCA: the root qualifies iff every keyword has a witness match
//     outside the subtrees of the root's ELCA descendants (see rootIsELCA).
//
// Root-involving queries — the root qualifying, or a result anchored at a
// root entity — evaluate on the lazily reconstructed whole-document corpus
// instead, which is exact by construction.
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

// runGoroutines is the default Runner: one goroutine per task.
func runGoroutines(tasks []func()) error {
	if len(tasks) == 1 {
		return Recover(tasks[0])
	}
	var wg sync.WaitGroup
	var box errBox
	wg.Add(len(tasks))
	for _, t := range tasks {
		go func(f func()) {
			defer wg.Done()
			box.put(Recover(f))
		}(t)
	}
	wg.Wait()
	return box.first()
}

// errBox collects the first error of one task batch across goroutines.
type errBox struct {
	mu  sync.Mutex
	err error
}

func (b *errBox) put(err error) {
	if err == nil {
		return
	}
	b.mu.Lock()
	if b.err == nil {
		b.err = err
	}
	b.mu.Unlock()
}

func (b *errBox) first() error {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.err
}

// Engines builds one engine per shard for opts, in Shards() order — the
// engine set SearchEngines accepts. The serving layer memoizes one set per
// option combination (shard.Corpus satisfies serve.Backend with it).
func (sc *Corpus) Engines(opts search.Options) []*search.Engine {
	engines := make([]*search.Engine, len(sc.shards))
	for i, s := range sc.shards {
		engines[i] = s.Engine(opts)
	}
	return engines
}

// SearchEngines is Search with caller-managed per-shard engines and task
// scheduling; see SearchEnginesContext, which it calls with a background
// context.
func (sc *Corpus) SearchEngines(query string, opts search.Options, engines []*search.Engine, run Runner) ([]*search.Result, error) {
	return sc.SearchEnginesContext(context.Background(), query, opts, engines, run)
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
	if len(sc.shards) == 0 {
		return nil, search.ErrEmptyQuery
	}
	if run == nil {
		run = runGoroutines
	}
	shardEngine := func(i int) *search.Engine {
		if engines != nil {
			return engines[i]
		}
		return sc.shards[i].Engine(opts)
	}
	// One shard: the lone engine's own Search, with no prefilter, digest or
	// merge in the way — the direct-engine reference path every multi-shard
	// answer is pinned byte-identical to, so it stays a separate branch.
	if len(sc.shards) == 1 {
		var rs []*search.Result
		var serr error
		if err := run([]func(){func() {
			if serr = Checkpoint(ctx); serr != nil {
				return
			}
			rs, serr = shardEngine(0).Search(query)
		}}); err != nil {
			return nil, err
		}
		return rs, serr
	}

	// Prefilter pass: a shard whose keyword-presence filter is missing any
	// query token provably contains no local LCA (conjunctive semantics),
	// so no pool task is dispatched for it and its posting lists are never
	// touched. The filter is one-sided — it only ever skips provably-empty
	// shards; a hash collision merely evaluates a shard to an empty answer
	// (see the never-skips property test). Skipped shards still owe the
	// root decision their per-keyword match counts; those are filled in
	// lazily below, only when the decision actually needs them.
	terms := search.ParseQuery(query)
	if len(terms) == 0 {
		return nil, search.ErrEmptyQuery
	}
	queryTokens := make([]string, 0, len(terms))
	for _, t := range terms {
		queryTokens = append(queryTokens, t.Tokens...)
	}
	skip := make([]bool, len(sc.shards))
	live := 0
	for i, s := range sc.shards {
		if s.Index.Prefilter().MayContainAll(queryTokens) {
			live++
		} else {
			skip[i] = true
		}
	}

	type shardOut struct {
		eval *search.Evaluation
		// nonRootLCAs is the local LCA set minus the shard root — under
		// contiguous partitioning, exactly this shard's slice of the
		// global non-root LCA set.
		nonRootLCAs []*xmltree.Node
		results     []*search.Result
		// rootAnchored reports a result anchored at the shard root.
		rootAnchored bool
		err          error
	}
	outs := make([]shardOut, len(sc.shards))
	tasks := make([]func(), 0, live)
	for i, s := range sc.shards {
		if skip[i] {
			continue
		}
		i, eng, root := i, shardEngine(i), s.Doc.Root
		tasks = append(tasks, func() {
			o := &outs[i]
			if o.err = Checkpoint(ctx); o.err != nil {
				return
			}
			o.eval, o.nonRootLCAs, o.results, o.err = eng.EvaluateResults(query,
				func(n *xmltree.Node) bool { return n != root })
			if o.err != nil {
				return
			}
			for _, r := range o.results {
				if r.Anchor == root {
					o.rootAnchored = true
					break
				}
			}
		})
	}
	if len(tasks) > 0 {
		if err := run(tasks); err != nil {
			return nil, err
		}
	}
	for i := range outs {
		if outs[i].err != nil {
			return nil, outs[i].err
		}
	}

	// ensureSkippedEvals backfills evaluations for prefilter-skipped shards
	// when the root decision needs corpus-wide per-keyword evidence. These
	// evaluations are cheap — a skipped shard is missing some keyword, so
	// evaluation is posting-list lookups with no LCA computation — and the
	// common case (a non-root LCA exists somewhere) never pays for them.
	ensureSkippedEvals := func() error {
		for i := range outs {
			if !skip[i] || outs[i].eval != nil {
				continue
			}
			if err := Checkpoint(ctx); err != nil {
				return err
			}
			ev, err := shardEngine(i).Evaluate(query)
			if err != nil {
				return err
			}
			outs[i].eval = ev
		}
		return nil
	}

	anyLCAs := false
	rootAnchored := false
	for i := range outs {
		if len(outs[i].nonRootLCAs) > 0 {
			anyLCAs = true
		}
		if outs[i].rootAnchored {
			rootAnchored = true
		}
	}

	// Decide whether the global root belongs in the LCA set, via the same
	// Digest decision procedure the distributed router uses. The ELCA
	// witness check always needs every shard's posting lists; the SLCA
	// check needs them only when no shard produced a non-root SLCA (the
	// root is smallest iff no proper descendant covers all keywords and
	// the corpus as a whole covers them — including keywords spread across
	// shards with no local co-occurrence at all), so the common case never
	// evaluates the prefilter-skipped shards at all.
	rootQualifies := false
	if opts.Semantics == search.SemanticsELCA || !anyLCAs {
		if err := ensureSkippedEvals(); err != nil {
			return nil, err
		}
		withFree := opts.Semantics == search.SemanticsELCA
		digests := make([]Digest, len(outs))
		for i := range outs {
			digests[i] = NewDigest(outs[i].eval, outs[i].nonRootLCAs, outs[i].rootAnchored, withFree)
		}
		rootQualifies = RootQualifies(opts.Semantics, digests)
	}

	if rootQualifies || rootAnchored {
		// Cross-shard result: evaluate exactly on the whole document. The
		// fallback reconstruction and re-evaluation are the expensive tail,
		// so re-check cancellation before paying for them.
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		fb := sc.Fallback()
		return search.NewEngine(fb.Doc, fb.Index, sc.cls, opts).Search(query)
	}

	byShard := make([][]*search.Result, len(outs))
	for i := range outs {
		byShard[i] = outs[i].results
	}
	return MergeResults(byShard, opts.MaxResults), nil
}
