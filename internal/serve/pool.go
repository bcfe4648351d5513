// Package serve is the query-serving layer over a corpus: the piece that
// turns the one-shot query path into something that can hold up under
// sustained traffic. It drives any corpus through the Backend interface —
// a local corpus of n >= 1 shards, or a remote tier's router — and
// contributes two things the raw corpus does not have:
//
//   - a fixed-size worker pool bounding the concurrency of all fanned-out
//     work — per-shard evaluation and snippet generation
//     (shard.Corpus.Search alone spawns one goroutine per shard per query,
//     which multiplies under concurrent queries; a one-shard corpus's lone
//     evaluation runs inline on the caller, there being nothing to fan
//     out),
//   - a sharded, size-bounded LRU query cache keyed on the parsed query
//     itself, with singleflight so concurrent identical queries compute once
//     and explicit invalidation on corpus swap (Server.Swap — the online
//     reload path; in-flight queries finish against the corpus they
//     started on and their responses are never cached). A local delta
//     reload keeps the responses whose results lie in the shards it
//     adopted, as carried entries, each replayed once round one on the new
//     generation picks its results again.
//
// Cached responses are byte-identical to uncached evaluation (pinned by
// property tests); the layer changes cost, never answers.
package serve

import (
	"sync"

	"extract/internal/shard"
)

// Pool is a fixed-size worker pool executing batches of independent tasks.
// One Pool serves every query against a Server, so total evaluation
// concurrency is bounded by the pool size no matter how many queries are in
// flight. When every worker is busy the submitting goroutine runs tasks
// inline instead of queueing behind a slow batch — submission never blocks
// on unrelated work and Run can never deadlock, even against a stopped
// pool.
//
// Every task — on a worker or inline on the submitter — runs under panic
// recovery: a panicking task becomes a *shard.PanicError on its own batch,
// failing that query alone. Workers survive to serve unrelated queries.
type Pool struct {
	tasks chan poolTask

	stopOnce sync.Once
	stop     chan struct{}
}

type poolTask struct {
	fn   func()
	done *sync.WaitGroup
	box  *shard.ErrBox
}

// NewPool starts a pool of n workers (n < 1 is forced to 1).
func NewPool(n int) *Pool {
	if n < 1 {
		n = 1
	}
	p := &Pool{
		tasks: make(chan poolTask),
		stop:  make(chan struct{}),
	}
	for i := 0; i < n; i++ {
		go p.worker()
	}
	return p
}

func (p *Pool) worker() {
	for {
		select {
		case t := <-p.tasks:
			t.box.Put(shard.Recover(t.fn))
			t.done.Done()
		case <-p.stop:
			return
		}
	}
}

// Run executes every task and returns when all have completed, reporting
// the first recovered panic as a *shard.PanicError (nil when every task
// finished cleanly). Tasks a worker cannot pick up immediately run on the
// calling goroutine, under the same recovery.
func (p *Pool) Run(tasks []func()) error {
	if len(tasks) == 1 {
		return shard.Recover(tasks[0])
	}
	var wg sync.WaitGroup
	var box shard.ErrBox
	for _, fn := range tasks {
		wg.Add(1)
		select {
		case p.tasks <- poolTask{fn: fn, done: &wg, box: &box}:
		default:
			box.Put(shard.Recover(fn))
			wg.Done()
		}
	}
	wg.Wait()
	return box.First()
}

// Stop terminates the workers. In-flight tasks finish; Run keeps working
// afterwards (inline on the caller), so stopping is always safe.
func (p *Pool) Stop() {
	p.stopOnce.Do(func() { close(p.stop) })
}
