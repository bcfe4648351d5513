package bench

import (
	"strings"
	"testing"
)

// These tests keep the names they had when the same rules were applied by
// comparing a run's report with a committed one (CompareReports). Each
// pins one gate's bound on a passing and a violating sample; the gates
// themselves are the root package's BenchmarkGate* functions.

// mustGate returns a function that unwraps the bound a gated point
// carries, as in mustGate(t)(QueryBound(size)).
func mustGate(t *testing.T) func(Bound, bool) Bound {
	return func(g Bound, ok bool) Bound {
		t.Helper()
		if !ok {
			t.Fatal("point is not gated")
		}
		return g
	}
}

func passes(t *testing.T, g Bound, what string, ratio float64) {
	t.Helper()
	if err := g.Check(what, ratio); err != nil {
		t.Errorf("passing sample %.3f failed: %v", ratio, err)
	}
}

func fails(t *testing.T, g Bound, what string, ratio float64) {
	t.Helper()
	err := g.Check(what, ratio)
	if err == nil {
		t.Errorf("%s: violating sample %.3f passed %+v", what, ratio, g)
	} else if !strings.Contains(err.Error(), what) {
		t.Errorf("error %q does not name %q", err, what)
	}
}

func TestCompareReportsPasses(t *testing.T) {
	// A healthy run: every gated point at a ratio inside its bound.
	for _, size := range []int{1_000, 10_000, 100_000} {
		passes(t, mustGate(t)(QueryBound(size)), "query", committedQueryRatio[size])
	}
	passes(t, PersistBound(), "persist", 12)
	passes(t, WarmBound(), "warm", 400)
	for p, w := range committedColdWork {
		passes(t, mustGate(t)(TailBound(p)), p.String(), 0.1)
		passes(t, mustGate(t)(ColdWorkBound(p)), p.String(), w)
	}
	passes(t, DeltaBound(), "delta", 3)
}

func TestCompareReportsCatchesQueryRegression(t *testing.T) {
	// The bound is the committed multiple of the SLCA yardstick times the
	// tolerance: a query at that ceiling passes, one twice as slow fails.
	for size, r := range committedQueryRatio {
		g := mustGate(t)(QueryBound(size))
		passes(t, g, "QueryEndToEnd", r*GateTolerance)
		fails(t, g, "QueryEndToEnd", 2*r)
	}
	g := mustGate(t)(QueryBound(100_000))
	passes(t, g, "QueryEndToEnd", 3.55)
	fails(t, g, "QueryEndToEnd", 3.56)
}

func TestCompareReportsCatchesPersistRegression(t *testing.T) {
	// Packed load lost its advantage over building from XML: fails. The
	// floor sits near half the measured median (about 10x), never below
	// 5x, so a dip to 5x from runner noise still passes.
	g := PersistBound()
	passes(t, g, "persist", 5)
	fails(t, g, "persist", 4.9)
	fails(t, g, "persist", 1.5)
}

func TestCompareReportsIgnoresUnknownSizes(t *testing.T) {
	// Only points with a committed ratio are gated on it.
	if _, ok := QueryBound(999); ok {
		t.Error("a size with no committed query ratio is gated")
	}
	if _, ok := ColdWorkBound(ServePoint{Size: 999, Shards: 4}); ok {
		t.Error("a size with no committed cold work is gated")
	}
	if _, ok := ColdWorkBound(ServePoint{Size: 1_000, Shards: 4}); ok {
		t.Error("a jitter-scale point carries committed cold work")
	}
	if _, ok := TailBound(ServePoint{Size: 1_000, Shards: 4}); ok {
		t.Error("a jitter-scale point is tail-gated")
	}
}

func TestCompareReportsServeGate(t *testing.T) {
	g := WarmBound()
	// A healthy CI run far below the quiet-hardware ratio passes, and so
	// does one grazing the 5x floor.
	passes(t, g, "serve warm QPS", 8)
	passes(t, g, "serve warm QPS", 5.01)
	// The cache stopped paying: below the floor fails.
	fails(t, g, "serve warm QPS", 3)
}

func TestCompareReportsReloadGate(t *testing.T) {
	g := DeltaBound()
	// Healthy runs: above the 1.25x floor.
	passes(t, g, "delta reload", 1.6)
	passes(t, g, "delta reload", 1.26)
	// The delta stopped beating the full path by the floor: fails.
	fails(t, g, "delta reload", 1.2)
	fails(t, g, "delta reload", 1.05)
}

func TestCompareReportsTailGate(t *testing.T) {
	// The warm p99 may be at most 0.30 of the cold median at the points
	// whose committed cold median was 0.5 ms or more. The point set is
	// fixed: the bound reads no measurement, so a run whose cold medians
	// fall under 0.5 ms still gates these points.
	for _, p := range []ServePoint{{10_000, 4, false}, {10_000, 1, false}, {100_000, 4, false}} {
		g := mustGate(t)(TailBound(p))
		passes(t, g, "serve warm p99", 0.28)
		passes(t, g, "serve warm p99", 0.30)
		fails(t, g, "serve warm p99", 0.31)
		fails(t, g, "serve warm p99", 0.8)
	}
	// Points whose committed cold median was under 0.5 ms measured
	// scheduler jitter and are not gated.
	for _, p := range []ServePoint{{1_000, 4, false}, {1_000, 1, false}, {100_000, 1, false}, {10_000, 4, true}} {
		if _, ok := TailBound(p); ok {
			t.Errorf("%v is tail-gated", p)
		}
	}
}

func TestCompareReportsColdQPSGate(t *testing.T) {
	// Cold work is cold QPS times the yardstick pass: a machine half as
	// fast halves one and doubles the other, so the bound is the committed
	// work over the tolerance, whatever the machine.
	p := ServePoint{Size: 10_000, Shards: 4}
	g := mustGate(t)(ColdWorkBound(p))
	passes(t, g, "serve cold QPS", committedColdWork[p])
	passes(t, g, "serve cold QPS", 14.39/1.2)
	fails(t, g, "serve cold QPS", 14.39/1.21)
	// A real cold slowdown (QPS down 40% on the same machine) fails.
	g = mustGate(t)(ColdWorkBound(ServePoint{Size: 100_000, Shards: 4}))
	passes(t, g, "serve cold QPS", 268)
	fails(t, g, "serve cold QPS", 268*0.6)
}

// TestCompareReportsServeKeyedByShards: each size carries sharded and
// unsharded, local and routed serve points; one point's bound is never
// borrowed by another.
func TestCompareReportsServeKeyedByShards(t *testing.T) {
	four := mustGate(t)(ColdWorkBound(ServePoint{Size: 10_000, Shards: 4}))
	one := mustGate(t)(ColdWorkBound(ServePoint{Size: 10_000, Shards: 1}))
	if four == one {
		t.Errorf("the 4- and 1-shard points share the bound %+v", four)
	}
	// 15 passes the sharded point's floor (14.39 / 1.2) and fails the
	// unsharded one's (19.90 / 1.2).
	passes(t, four, "serve cold QPS (4 shards)", 15)
	fails(t, one, "serve cold QPS (1 shards)", 15)
	if _, ok := ColdWorkBound(ServePoint{Size: 10_000, Shards: 4, Routed: true}); ok {
		t.Error("the routed point borrows the local point's committed cold work")
	}
	if got := (ServePoint{Size: 10_000, Shards: 4, Routed: true}).String(); got != "nodes=10000/shards=4/routed" {
		t.Errorf("routed point key = %q", got)
	}
}
