package bench

import (
	"strings"
	"testing"
)

func report(queryNs, slcaNs int64, speedup float64) *SearchPerfReport {
	return &SearchPerfReport{
		Points:  []SearchPerfPoint{{Nodes: 100_000, QueryNs: queryNs, SLCABeforeNs: slcaNs}},
		Persist: []PersistPerfPoint{{Nodes: 100_000, LoadPackedNs: 1_900_000, LoadSpeedup: speedup}},
	}
}

func TestCompareReportsPasses(t *testing.T) {
	base := report(10_000_000, 5_000_000, 12)
	// Same ratios on a machine half as fast: no regression.
	cur := report(20_000_000, 10_000_000, 11)
	if msgs := CompareReports(base, cur, 1.2); len(msgs) != 0 {
		t.Fatalf("unexpected regressions: %v", msgs)
	}
}

func TestCompareReportsCatchesQueryRegression(t *testing.T) {
	base := report(10_000_000, 5_000_000, 12)
	// Query got 2x slower relative to the frozen SLCA yardstick.
	cur := report(20_000_000, 5_000_000, 12)
	msgs := CompareReports(base, cur, 1.2)
	if len(msgs) != 1 || !strings.Contains(msgs[0], "QueryEndToEnd") {
		t.Fatalf("msgs = %v", msgs)
	}
}

func TestCompareReportsCatchesPersistRegression(t *testing.T) {
	base := report(10_000_000, 5_000_000, 12)
	// Packed load lost its advantage entirely.
	cur := report(10_000_000, 5_000_000, 1.5)
	msgs := CompareReports(base, cur, 1.2)
	if len(msgs) != 1 || !strings.Contains(msgs[0], "persist") {
		t.Fatalf("msgs = %v", msgs)
	}
	// Runner-noise headroom: a dip from 12x to 6x still passes (the
	// demanded floor is capped at 6x/tol).
	cur = report(10_000_000, 5_000_000, 6)
	if msgs := CompareReports(base, cur, 1.2); len(msgs) != 0 {
		t.Fatalf("noise dip flagged: %v", msgs)
	}
	// Sub-millisecond baseline loads are fixed-cost noise, not gate
	// material, whatever their ratio: the committed 10 121-node row (0.24 ms,
	// 7.4x) reads 3.4-3.9x on a slower machine with nothing changed.
	small := func(speedup float64) *SearchPerfReport {
		return &SearchPerfReport{Persist: []PersistPerfPoint{{Nodes: 10_121, LoadPackedNs: 244_466, LoadSpeedup: speedup}}}
	}
	if msgs := CompareReports(small(7.4), small(3.4), 1.2); len(msgs) != 0 {
		t.Fatalf("sub-millisecond point flagged: %v", msgs)
	}
}

func TestCompareReportsIgnoresUnknownSizes(t *testing.T) {
	base := report(10_000_000, 5_000_000, 12)
	cur := &SearchPerfReport{
		Points:  []SearchPerfPoint{{Nodes: 999, QueryNs: 1, SLCABeforeNs: 1}},
		Persist: []PersistPerfPoint{{Nodes: 999, LoadSpeedup: 0.1}},
	}
	if msgs := CompareReports(base, cur, 1.2); len(msgs) != 0 {
		t.Fatalf("msgs = %v", msgs)
	}
}

func serveReport(warmSpeedup float64) *SearchPerfReport {
	return &SearchPerfReport{
		Serve: []ServePerfPoint{{Nodes: 100_000, WarmSpeedup: warmSpeedup}},
	}
}

func TestCompareReportsServeGate(t *testing.T) {
	base := serveReport(400) // quiet-hardware warm/cold ratio
	// A healthy CI run: far below the committed ratio but above the
	// capped floor (6x / 1.2 = 5x).
	if msgs := CompareReports(base, serveReport(8), 1.2); len(msgs) != 0 {
		t.Fatalf("noise dip flagged: %v", msgs)
	}
	if msgs := CompareReports(base, serveReport(5.01), 1.2); len(msgs) != 0 {
		t.Fatalf("floor grazed but passed ratio flagged: %v", msgs)
	}
	// The cache stopped paying: below the floor fails.
	msgs := CompareReports(base, serveReport(3), 1.2)
	if len(msgs) != 1 || !strings.Contains(msgs[0], "serve warm QPS") {
		t.Fatalf("msgs = %v", msgs)
	}
	// Small committed ratios are noise, not gated.
	if msgs := CompareReports(serveReport(3), serveReport(1), 1.2); len(msgs) != 0 {
		t.Fatalf("sub-threshold serve ratio flagged: %v", msgs)
	}
	// Sizes absent from the baseline are ignored.
	cur := &SearchPerfReport{Serve: []ServePerfPoint{{Nodes: 999, WarmSpeedup: 0.5}}}
	if msgs := CompareReports(base, cur, 1.2); len(msgs) != 0 {
		t.Fatalf("unknown size flagged: %v", msgs)
	}
}

func reloadReport(source string, deltaSpeedup float64) *SearchPerfReport {
	return &SearchPerfReport{
		Reload: []ReloadPerfPoint{{Nodes: 100_000, Shards: 4, Source: source,
			FullNs: 2_000_000, DeltaSpeedup: deltaSpeedup}},
	}
}

func TestCompareReportsReloadGate(t *testing.T) {
	base := reloadReport("snapshot", 3.0) // quiet-hardware delta/full ratio
	// Healthy runs: below the committed ratio but above the capped floor
	// (1.5x / 1.2 = 1.25x).
	if msgs := CompareReports(base, reloadReport("snapshot", 1.6), 1.2); len(msgs) != 0 {
		t.Fatalf("noise dip flagged: %v", msgs)
	}
	if msgs := CompareReports(base, reloadReport("snapshot", 1.26), 1.2); len(msgs) != 0 {
		t.Fatalf("floor grazed but passed ratio flagged: %v", msgs)
	}
	// The delta stopped beating the full path: fails.
	msgs := CompareReports(base, reloadReport("snapshot", 1.05), 1.2)
	if len(msgs) != 1 || !strings.Contains(msgs[0], "delta reload") {
		t.Fatalf("msgs = %v", msgs)
	}
	// XML-source points pay the whole-file parse and re-analysis either
	// way; committed ratios under the threshold are trajectory, not gate.
	if msgs := CompareReports(reloadReport("xml", 1.15), reloadReport("xml", 0.9), 1.2); len(msgs) != 0 {
		t.Fatalf("sub-threshold xml ratio flagged: %v", msgs)
	}
	// Once the committed XML ratio clears the threshold the point is gated
	// like a snapshot one: a delta that stops beating the full path fails.
	if msgs := CompareReports(reloadReport("xml", 1.4), reloadReport("xml", 1.2), 1.2); len(msgs) != 0 {
		t.Fatalf("xml ratio above its floor (1.4x / 1.2) flagged: %v", msgs)
	}
	msgs = CompareReports(reloadReport("xml", 1.4), reloadReport("xml", 1.0), 1.2)
	if len(msgs) != 1 || !strings.Contains(msgs[0], "delta reload") || !strings.Contains(msgs[0], "xml") {
		t.Fatalf("regressing xml point not flagged: %v", msgs)
	}
	// Points are keyed by source: an xml current point never answers for
	// the snapshot baseline.
	if msgs := CompareReports(base, reloadReport("xml", 0.9), 1.2); len(msgs) != 0 {
		t.Fatalf("cross-source comparison happened: %v", msgs)
	}
	// Sub-millisecond baseline full reloads are fixed-cost noise, not
	// gate material, whatever their ratio.
	tiny := &SearchPerfReport{Reload: []ReloadPerfPoint{{Nodes: 1000, Shards: 4,
		Source: "snapshot", FullNs: 400_000, DeltaSpeedup: 2.5}}}
	tinyCur := &SearchPerfReport{Reload: []ReloadPerfPoint{{Nodes: 1000, Shards: 4,
		Source: "snapshot", FullNs: 400_000, DeltaSpeedup: 0.8}}}
	if msgs := CompareReports(tiny, tinyCur, 1.2); len(msgs) != 0 {
		t.Fatalf("sub-millisecond point flagged: %v", msgs)
	}
}

func tailReport(coldP50, warmP99 int64) *SearchPerfReport {
	return &SearchPerfReport{
		Serve: []ServePerfPoint{{Nodes: 100_000, Shards: 4,
			ColdP50Ns: coldP50, WarmP99Ns: warmP99}},
	}
}

func TestCompareReportsTailGate(t *testing.T) {
	// Quiet-hardware baseline: warm p99 is 10% of the cold median.
	base := tailReport(5_000_000, 500_000)
	// Healthy CI run: looser than committed but inside the 0.25 floor
	// with tolerance (0.25 * 1.2 = 0.30).
	if msgs := CompareReports(base, tailReport(5_000_000, 1_400_000), 1.2); len(msgs) != 0 {
		t.Fatalf("noise dip flagged: %v", msgs)
	}
	// The warm tail blew past the floored limit: fails.
	msgs := CompareReports(base, tailReport(5_000_000, 2_000_000), 1.2)
	if len(msgs) != 1 || !strings.Contains(msgs[0], "serve warm p99") {
		t.Fatalf("msgs = %v", msgs)
	}
	// A baseline looser than the floor gates at its own ratio, not the
	// floor: committed 0.4, current 0.45 passes (0.4 * 1.2 = 0.48) …
	loose := tailReport(5_000_000, 2_000_000)
	if msgs := CompareReports(loose, tailReport(5_000_000, 2_250_000), 1.2); len(msgs) != 0 {
		t.Fatalf("within-tolerance drift flagged: %v", msgs)
	}
	// … and 0.5 fails.
	msgs = CompareReports(loose, tailReport(5_000_000, 2_500_000), 1.2)
	if len(msgs) != 1 || !strings.Contains(msgs[0], "serve warm p99") {
		t.Fatalf("msgs = %v", msgs)
	}
	// Sub-half-millisecond cold medians are scheduler jitter, not gated.
	if msgs := CompareReports(tailReport(400_000, 40_000), tailReport(400_000, 400_000), 1.2); len(msgs) != 0 {
		t.Fatalf("jitter-scale point flagged: %v", msgs)
	}
	// Baselines that predate latency capture (zero fields) are ignored.
	old := serveReport(400)
	if msgs := CompareReports(old, tailReport(5_000_000, 4_000_000), 1.2); len(msgs) != 0 {
		t.Fatalf("pre-latency baseline gated: %v", msgs)
	}
}

func coldReport(coldQPS float64, yardstickNs int64) *SearchPerfReport {
	return &SearchPerfReport{
		Serve: []ServePerfPoint{{Nodes: 100_000, Shards: 4,
			ColdQPS: coldQPS, ColdYardstickNs: yardstickNs,
			ColdP50Ns: 3_000_000}},
	}
}

func TestCompareReportsColdQPSGate(t *testing.T) {
	// Quiet-hardware baseline: 300 QPS cold, 8ms yardstick pass → cold
	// work 2.4 baseline-SLCA passes/sec.
	base := coldReport(300, 8_000_000)
	// A machine half as fast halves the QPS but doubles the yardstick:
	// same cold work, no regression.
	if msgs := CompareReports(base, coldReport(150, 16_000_000), 1.2); len(msgs) != 0 {
		t.Fatalf("machine-speed difference flagged: %v", msgs)
	}
	// Within tolerance: 2.4 / 1.2 = 2.0, so 2.05 passes …
	if msgs := CompareReports(base, coldReport(256, 8_000_000), 1.2); len(msgs) != 0 {
		t.Fatalf("within-tolerance dip flagged: %v", msgs)
	}
	// … and a real cold slowdown (same machine, QPS down 40%) fails.
	msgs := CompareReports(base, coldReport(180, 8_000_000), 1.2)
	if len(msgs) != 1 || !strings.Contains(msgs[0], "serve cold QPS") {
		t.Fatalf("msgs = %v", msgs)
	}
	// Sub-half-millisecond cold medians are jitter-scale, not gated.
	tiny := coldReport(3000, 800_000)
	tiny.Serve[0].ColdP50Ns = 300_000
	tinyCur := coldReport(1000, 800_000)
	tinyCur.Serve[0].ColdP50Ns = 300_000
	if msgs := CompareReports(tiny, tinyCur, 1.2); len(msgs) != 0 {
		t.Fatalf("jitter-scale point flagged: %v", msgs)
	}
	// Baselines that predate the yardstick (zero field) are ignored.
	if msgs := CompareReports(serveReport(400), coldReport(1, 8_000_000), 1.2); len(msgs) != 0 {
		t.Fatalf("pre-yardstick baseline gated: %v", msgs)
	}
}

// TestCompareReportsServeKeyedByShards: each size carries a sharded and an
// unsharded serve point; a regression of one must be attributed to it, not
// masked by (or blamed on) the other.
func TestCompareReportsServeKeyedByShards(t *testing.T) {
	base := &SearchPerfReport{Serve: []ServePerfPoint{
		{Nodes: 100_000, Shards: 4, WarmSpeedup: 400},
		{Nodes: 100_000, Shards: 1, WarmSpeedup: 300},
	}}
	cur := &SearchPerfReport{Serve: []ServePerfPoint{
		{Nodes: 100_000, Shards: 4, WarmSpeedup: 8}, // healthy
		{Nodes: 100_000, Shards: 1, WarmSpeedup: 2}, // cache stopped paying
	}}
	msgs := CompareReports(base, cur, 1.2)
	if len(msgs) != 1 || !strings.Contains(msgs[0], "(1 shards)") {
		t.Fatalf("msgs = %v, want exactly the unsharded point flagged", msgs)
	}
}
