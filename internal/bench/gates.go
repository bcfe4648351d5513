package bench

import "fmt"

// The ratio gates' pass rules. The root package's BenchmarkGate* functions
// time a subject against a yardstick measured in the same run and check
// the ratio against one of the bounds below. Each bound is a pure function
// of the point it gates, so the tier-1 tests pin it without timing
// anything.

// GateTolerance is how much worse than its committed ratio a point may
// measure before a gate that carries a committed ratio fails. A committed
// ratio is the worst of ten recorded BenchmarkGate* runs (CHANGES.md
// gives the rule and the runs), so every recorded run clears its bound by this factor.
const GateTolerance = 1.2

// A Bound is one point's pass rule: the measured ratio must be at least
// Min (when Min > 0) and at most Max (when Max > 0).
type Bound struct{ Min, Max float64 }

// Check returns an error naming what was measured when ratio breaks the
// bound, and nil when it holds.
func (g Bound) Check(what string, ratio float64) error {
	if g.Min > 0 && ratio < g.Min {
		return fmt.Errorf("%s: %.3f, below the floor %.3f", what, ratio, g.Min)
	}
	if g.Max > 0 && ratio > g.Max {
		return fmt.Errorf("%s: %.3f, above the ceiling %.3f", what, ratio, g.Max)
	}
	return nil
}

// committedQueryRatio is the end-to-end query time over the frozen SLCA
// yardstick's (search.SLCABaseline) time for the same query, per corpus
// size: the highest of the recorded runs.
var committedQueryRatio = map[int]float64{
	1_000:   17.90,
	10_000:  14.77,
	100_000: 2.965,
}

// QueryBound: a query may cost at most GateTolerance times its committed
// multiple of the SLCA yardstick. A size with no committed ratio is not
// gated.
func QueryBound(size int) (Bound, bool) {
	r, ok := committedQueryRatio[size]
	return Bound{Max: r * GateTolerance}, ok
}

// PersistBound: loading a packed image must beat building the same corpus
// from its XML (parse, then core.BuildCorpus) by this factor at 100k nodes:
// about half the ratio's median, never below 5x.
func PersistBound() Bound { return Bound{Min: 5} }

// WarmBound: a warm (cached) replay of the serve workload must run this
// many times faster than a cold one.
func WarmBound() Bound { return Bound{Min: 5} }

// TailBound: a warm p99 may be at most this share of the cold median, at
// the points that carry committed cold work. Which points those are is
// fixed, not read from a run: a fast machine whose cold medians fall below
// half a millisecond still gates them.
func TailBound(p ServePoint) (Bound, bool) {
	_, ok := committedColdWork[p]
	return Bound{Max: 0.30}, ok
}

// ServePoint keys the serve gate's points: local and routed points of one
// size and shard count are gated apart.
type ServePoint struct {
	Size, Shards int
	Routed       bool
}

func (p ServePoint) String() string {
	backend := "local"
	if p.Routed {
		backend = "routed"
	}
	return fmt.Sprintf("nodes=%d/shards=%d/%s", p.Size, p.Shards, backend)
}

// committedColdWork is cold QPS times the SLCA yardstick's time for one
// pass over the workload's distinct queries: how many yardstick passes'
// worth of work the uncached path serves a second, the lowest of the
// recorded runs. Its points are the ones whose cold median was at least
// half a millisecond when the serve gates were first committed (shorter
// medians measured scheduler jitter); the other points are not gated on it
// or on the tail.
var committedColdWork = map[ServePoint]float64{
	{10_000, 4, false}:  14.39,
	{10_000, 1, false}:  19.90,
	{100_000, 4, false}: 268.0,
}

// ColdWorkBound: the cold path may serve at most GateTolerance times less
// work than committed. A point with no committed cold work is not gated.
func ColdWorkBound(p ServePoint) (Bound, bool) {
	w, ok := committedColdWork[p]
	return Bound{Min: w / GateTolerance}, ok
}

// DeltaBound: a one-entity delta reload must beat a full reload by this
// factor at the gated points.
func DeltaBound() Bound { return Bound{Min: 1.25} }
