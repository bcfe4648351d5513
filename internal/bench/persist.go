package bench

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"extract/internal/core"
	"extract/internal/persist"
)

// PersistPerfPoint is one row of the persist-load trajectory: loading a
// corpus from the frozen legacy yardstick format (which re-tokenizes the
// inverted index on every load)
// versus the packed format internal/persist writes (which restores the
// posting arrays and interning tables from int32 slabs) at one corpus size.
type PersistPerfPoint struct {
	Nodes int `json:"nodes"`

	LegacyBytes int `json:"legacy_bytes"`
	PackedBytes int `json:"packed_bytes"`

	SaveNs int64 `json:"save_packed_ns"`

	LoadRebuildNs int64   `json:"load_rebuild_ns"`
	LoadPackedNs  int64   `json:"load_packed_ns"`
	LoadSpeedup   float64 `json:"load_speedup"`
}

// timeItCold measures fn as a cold one-shot: a forced GC before every run
// so each measurement starts from a settled heap — the corpus-load-at-
// -server-start scenario the persist trajectory tracks. Scheduler noise on a
// shared machine is strictly additive and arrives in bursts, so it keeps
// sampling (at least minReps, up to maxReps) until the running minimum has
// not improved for `patience` consecutive runs: the minimum is the estimate
// closest to the true cost, and the adaptive window rides out contention
// bursts that a fixed small rep count can sit entirely inside.
func timeItCold(minReps int, fn func()) int64 {
	const (
		patience = 20
		maxReps  = 150
	)
	fn() // warm the code paths and the page cache, not the heap
	best := int64(0)
	sinceImproved := 0
	for i := 0; i < maxReps && (i < minReps || sinceImproved < patience); i++ {
		runtime.GC()
		start := time.Now()
		fn()
		d := time.Since(start).Nanoseconds()
		if best == 0 || d < best {
			best = d
			sinceImproved = 0
		} else {
			sinceImproved++
		}
	}
	return best
}

// PersistPerf measures cold corpus-load time for the rebuild path (the
// frozen yardstick in legacybaseline.go) against persist.LoadFile — the path
// a server takes when it opens its on-disk indexes — at the given corpus
// sizes.
func PersistPerf(sizes []int) ([]PersistPerfPoint, error) {
	if len(sizes) == 0 {
		sizes = []int{1_000, 10_000, 100_000}
	}
	dir, err := os.MkdirTemp("", "extract-persist-bench")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)

	var points []PersistPerfPoint
	for i, size := range sizes {
		doc := storesCorpusOfSize(size, 1)
		c := core.BuildCorpus(doc)

		legacyPath := filepath.Join(dir, fmt.Sprintf("legacy-%d.xtix", i))
		packedPath := filepath.Join(dir, fmt.Sprintf("packed-%d.xtix", i))
		var legacy bytes.Buffer
		if err := saveLegacy(&legacy, c); err != nil {
			return nil, err
		}
		if err := os.WriteFile(legacyPath, legacy.Bytes(), 0o644); err != nil {
			return nil, err
		}
		if err := persist.SaveFile(packedPath, c); err != nil {
			return nil, err
		}
		fi, err := os.Stat(packedPath)
		if err != nil {
			return nil, err
		}
		p := PersistPerfPoint{
			Nodes:       c.Doc.Len(),
			LegacyBytes: legacy.Len(),
			PackedBytes: int(fi.Size()),
		}
		p.SaveNs = timeItCold(5, func() {
			var buf bytes.Buffer
			if err := persist.Save(&buf, c); err != nil {
				panic(err)
			}
		})
		// The built corpus c stays referenced above as deliberate heap
		// ballast: it keeps the GC pacer's target above the load's
		// transient allocations, as a long-lived server's heap would.
		reps := 30
		p.LoadRebuildNs = timeItCold(reps, func() {
			if _, err := loadLegacyFile(legacyPath); err != nil {
				panic(err)
			}
		})
		p.LoadPackedNs = timeItCold(reps, func() {
			if _, err := persist.LoadFile(packedPath); err != nil {
				panic(err)
			}
		})
		p.LoadSpeedup = speedup(p.LoadRebuildNs, p.LoadPackedNs)
		points = append(points, p)
	}
	return points, nil
}

// UpdatePersistPerf runs the persist suite and merges the points into the
// report JSON at path, preserving any search points already recorded there.
func UpdatePersistPerf(path string, sizes []int) ([]PersistPerfPoint, error) {
	points, err := PersistPerf(sizes)
	if err != nil {
		return nil, err
	}
	report, err := ReadReport(path)
	if err != nil {
		return nil, err
	}
	report.Persist = points
	return points, WriteReport(path, report)
}

// ReadReport loads a BENCH_search.json report; a missing file yields an
// empty report so either suite can be recorded first.
func ReadReport(path string) (*SearchPerfReport, error) {
	data, err := os.ReadFile(path)
	if os.IsNotExist(err) {
		return &SearchPerfReport{}, nil
	}
	if err != nil {
		return nil, err
	}
	var r SearchPerfReport
	if err := json.Unmarshal(data, &r); err != nil {
		return nil, fmt.Errorf("bench: %s: %w", path, err)
	}
	return &r, nil
}

// WriteReport writes the report JSON to path.
func WriteReport(path string, r *SearchPerfReport) error {
	data, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// RenderPersist prints a human summary of the persist points.
func RenderPersist(points []PersistPerfPoint) string {
	var b strings.Builder
	fmt.Fprintf(&b, "## persist load: rebuild yardstick vs packed\n\n")
	fmt.Fprintf(&b, "| nodes | legacy bytes | packed bytes | save packed (ms) | load rebuild/packed (ms) | x |\n")
	fmt.Fprintf(&b, "|---|---|---|---|---|---|\n")
	ms := func(ns int64) string { return fmt.Sprintf("%.3f", float64(ns)/1e6) }
	for _, p := range points {
		fmt.Fprintf(&b, "| %d | %d | %d | %s | %s / %s | %.1f |\n",
			p.Nodes, p.LegacyBytes, p.PackedBytes, ms(p.SaveNs),
			ms(p.LoadRebuildNs), ms(p.LoadPackedNs), p.LoadSpeedup)
	}
	return b.String()
}

// CompareReports checks current against baseline and returns one message
// per regression — a QueryEndToEnd, persist packed-load or serving-layer
// throughput result at a matching corpus size more than tol times worse
// than the committed baseline (tol 1.2 = 20% worse fails). Sizes absent
// from the baseline are ignored.
//
// Raw nanoseconds are not comparable across machines (the committed
// baseline and a CI runner differ in clock speed and load), so every gate
// compares machine-normalized ratios: QueryEndToEnd is taken relative to
// the same run's SLCABaseline time (frozen pre-rewrite code, a stable
// yardstick for the machine it ran on), the persist gate uses the packed
// load's speedup over the legacy rebuild load measured in the same run,
// and the serve gate uses the warm (cached) over cold (uncached) QPS ratio
// of one back-to-back run.
func CompareReports(baseline, current *SearchPerfReport, tol float64) []string {
	var msgs []string

	queryRatio := func(p SearchPerfPoint) float64 {
		if p.SLCABeforeNs <= 0 || p.QueryNs <= 0 {
			return 0
		}
		return float64(p.QueryNs) / float64(p.SLCABeforeNs)
	}
	baseQuery := map[int]float64{}
	for _, p := range baseline.Points {
		baseQuery[p.Nodes] = queryRatio(p)
	}
	for _, p := range current.Points {
		base, ok := baseQuery[p.Nodes]
		cur := queryRatio(p)
		if !ok || base <= 0 || cur <= 0 {
			continue
		}
		if cur > base*tol {
			msgs = append(msgs, fmt.Sprintf(
				"QueryEndToEnd at %d nodes regressed: %.2fx -> %.2fx the baseline-SLCA yardstick (limit %.0f%%)",
				p.Nodes, base, cur, (tol-1)*100))
		}
	}

	basePersist := map[int]PersistPerfPoint{}
	for _, p := range baseline.Persist {
		basePersist[p.Nodes] = p
	}
	for _, p := range current.Persist {
		bp, ok := basePersist[p.Nodes]
		base := bp.LoadSpeedup
		if !ok || base <= 0 || p.LoadSpeedup <= 0 {
			continue
		}
		// Sub-millisecond baseline loads are dominated by fixed costs
		// (allocator, GC, syscalls): the ratio there is measurement
		// noise, not signal, whatever its size. The packed format's
		// advantage — and the gate — lives at scale.
		if bp.LoadPackedNs < 1_000_000 {
			continue
		}
		// The committed speedup is recorded on quiet hardware; contended
		// CI runners depress the ratio even with min-of-N cold sampling.
		// Capping the demanded baseline at 6x (so the default-tolerance
		// floor is 5x) gives the gate headroom for that while still
		// failing loudly if the packed load's order-of-magnitude
		// advantage actually erodes toward the rebuild path.
		demanded := base
		if demanded > 6 {
			demanded = 6
		}
		if p.LoadSpeedup < demanded/tol {
			msgs = append(msgs, fmt.Sprintf(
				"persist packed load at %d nodes regressed: %.1fx -> %.1fx over the rebuild path (limit %.1fx)",
				p.Nodes, base, p.LoadSpeedup, demanded/tol))
		}
	}

	// Serve points come in sharded and unsharded variants at each corpus
	// size, plus the routed loopback point, so the baseline is keyed on
	// all three dimensions — a remote point never gates a local one.
	type serveKey struct {
		nodes, shards int
		backend       string
	}
	baseServe := map[serveKey]float64{}
	for _, p := range baseline.Serve {
		baseServe[serveKey{p.Nodes, p.Shards, p.Backend}] = p.WarmSpeedup
	}
	for _, p := range current.Serve {
		base, ok := baseServe[serveKey{p.Nodes, p.Shards, p.Backend}]
		if !ok || base <= 0 || p.WarmSpeedup <= 0 {
			continue
		}
		// Same scheme as the persist gate: small-corpus points where cold
		// evaluation is already sub-millisecond measure fixed costs, not
		// the cache; and the committed warm/cold ratio from quiet hardware
		// overstates what a contended CI runner can reproduce, so the
		// demanded baseline is capped (floor 5x at default tolerance — the
		// serving layer's headline guarantee) while still failing loudly
		// if cached queries stop being an order cheaper than evaluation.
		if base < 4 {
			continue
		}
		demanded := base
		if demanded > 6 {
			demanded = 6
		}
		if p.WarmSpeedup < demanded/tol {
			msgs = append(msgs, fmt.Sprintf(
				"serve warm QPS at %d nodes (%d shards) regressed: %.1fx -> %.1fx over cold evaluation (limit %.1fx)",
				p.Nodes, p.Shards, base, p.WarmSpeedup, demanded/tol))
		}
	}

	// Tail-latency gate: warm p99 over cold median of the same
	// back-to-back run (ServePerfPoint.TailRatio). Like every other gate
	// it is a ratio, so it transfers across machines; unlike the QPS gates
	// it bounds the slowest-1% experience, which throughput averages hide
	// — a cache that answers most queries instantly but stalls its tail
	// behind a lock would pass the QPS gate and fail here.
	baseTail := map[serveKey]ServePerfPoint{}
	for _, p := range baseline.Serve {
		baseTail[serveKey{p.Nodes, p.Shards, p.Backend}] = p
	}
	for _, p := range current.Serve {
		bp, ok := baseTail[serveKey{p.Nodes, p.Shards, p.Backend}]
		base := bp.TailRatio()
		cur := p.TailRatio()
		if !ok || base <= 0 || cur <= 0 {
			continue // baseline predates latency capture
		}
		// Points whose cold median is sub-half-millisecond measure
		// scheduler jitter, not the serving layer: at that scale one
		// preemption moves the p99 severalfold. The gate lives where
		// evaluation is expensive enough for the cache's tail benefit to
		// be the dominant term.
		if bp.ColdP50Ns < 500_000 {
			continue
		}
		// A committed baseline from quiet hardware can be arbitrarily
		// tight (warm p99 a tiny sliver of the cold median); demanding
		// that sliver of a contended CI runner would flake. Floor the
		// demand at 0.25 — the enforced guarantee is "a p99 cached query
		// stays well under a quarter of an uncached median query", and
		// tighter committed baselines only tighten the gate down to that
		// floor.
		demanded := base
		if demanded < 0.25 {
			demanded = 0.25
		}
		if cur > demanded*tol {
			msgs = append(msgs, fmt.Sprintf(
				"serve warm p99 at %d nodes (%d shards) regressed: tail ratio %.3f -> %.3f of the cold median (limit %.3f)",
				p.Nodes, p.Shards, base, cur, demanded*tol))
		}
	}

	// Cold-QPS gate: cold QPS times the same run's frozen-SLCA yardstick
	// (ServePerfPoint.ColdWork) — dimensionless "baseline-SLCA passes
	// served per second". The warm-speedup gate alone cannot catch a cold
	// regression: cold and warm slowing down together keeps that ratio
	// flat, and the tail gate would even *improve*. This gate pins the
	// uncached path itself, so the galloping and early-termination wins
	// stay won. Both factors come from the same run — contention
	// depresses QPS and inflates the yardstick together — so no
	// quiet-hardware cap is needed; only the shared tolerance applies.
	for _, p := range current.Serve {
		bp, ok := baseTail[serveKey{p.Nodes, p.Shards, p.Backend}]
		base := bp.ColdWork()
		cur := p.ColdWork()
		if !ok || base <= 0 || cur <= 0 {
			continue // baseline predates the cold yardstick
		}
		// Same small-point rule as the tail gate: a sub-half-millisecond
		// cold median means the ops measure dispatch overhead and
		// scheduler jitter, not evaluation. The cold path's cost — and
		// this gate — live at scale.
		if bp.ColdP50Ns < 500_000 {
			continue
		}
		if cur < base/tol {
			msgs = append(msgs, fmt.Sprintf(
				"serve cold QPS at %d nodes (%d shards) regressed: %.2f -> %.2f baseline-SLCA passes/sec (limit %.2f)",
				p.Nodes, p.Shards, base, cur, base/tol))
		}
	}

	// Reload points are keyed by (nodes, shards, source); the gated
	// quantity is the in-run delta/full reload speedup after a one-entity
	// edit.
	type reloadKey struct {
		nodes, shards int
		source        string
	}
	baseReload := map[reloadKey]ReloadPerfPoint{}
	for _, p := range baseline.Reload {
		baseReload[reloadKey{p.Nodes, p.Shards, p.Source}] = p
	}
	for _, p := range current.Reload {
		bp, ok := baseReload[reloadKey{p.Nodes, p.Shards, p.Source}]
		base := bp.DeltaSpeedup
		if !ok || base <= 0 || p.DeltaSpeedup <= 0 {
			continue
		}
		// Points whose baseline advantage is small are not gate material:
		// an XML-source delta still pays the whole-file parse and the
		// global re-analysis a full reload pays, so its advantage — the
		// shards it does not re-index — is gated only where the committed
		// ratio shows one (the byte scanner took parsing from nearly all of
		// both paths to a fraction: ~1.3–1.5x at 10k–100k nodes, where it
		// was ~1.05x). Neither are points whose baseline full reload is
		// sub-millisecond — there fixed costs (allocator, syscalls, the
		// swap itself) drown the per-shard work the delta skips and the
		// ratio is noise on a contended runner. The snapshot points —
		// decoding one changed packed image instead of all of them — carry
		// the largest enforceable advantage.
		if base < 1.25 || bp.FullNs < 1_000_000 {
			continue
		}
		// The committed speedup is recorded on quiet hardware; cap the
		// demand (floor ~1.25x at default tolerance) so a contended CI
		// runner has headroom, while still failing loudly if delta reload
		// stops beating the full path.
		demanded := base
		if demanded > 1.5 {
			demanded = 1.5
		}
		if p.DeltaSpeedup < demanded/tol {
			msgs = append(msgs, fmt.Sprintf(
				"delta reload at %d nodes (%d shards, %s) regressed: %.2fx -> %.2fx over the full path (limit %.2fx)",
				p.Nodes, p.Shards, p.Source, base, p.DeltaSpeedup, demanded/tol))
		}
	}
	return msgs
}
