package bench

import (
	"fmt"
	"strings"
)

// ReloadPerfPoint is one row of the refresh trajectory: reloading a served
// corpus after a one-entity edit, through the full path (parse, analyze and
// index everything — Load + Reload) versus the delta path (ReloadDelta:
// parse, index and infer only the changed shard's entities, merging its
// share of the analysis with the adopted shards'). Both paths read the same
// changed XML in the same run, so the delta/full ratio is
// machine-normalized like the persist and serve gates' ratios.
//
// The measurement itself lives in the reloadperf subpackage: it drives
// the extract facade, which this package cannot import (the facade's own
// benchmarks import this package).
type ReloadPerfPoint struct {
	Nodes  int `json:"nodes"`
	Shards int `json:"shards"`
	// Source is the reload input: "xml" (the changed file; the delta
	// splits it and parses, indexes and infers only the changed shard's
	// entities, so the win scales with the shard count) or "snapshot"
	// (packed images; the delta decodes one changed image instead of all
	// of them, so the win scales with the shard count).
	Source string `json:"source"`
	// ChangedShards is how many shards the edit touched (1 by
	// construction: the edit flips one text value in one top-level
	// entity).
	ChangedShards int `json:"changed_shards"`

	FullNs       int64   `json:"full_reload_ns"`
	DeltaNs      int64   `json:"delta_reload_ns"`
	DeltaSpeedup float64 `json:"delta_speedup"`
}

// RenderReload prints a human summary of the reload points.
func RenderReload(points []ReloadPerfPoint) string {
	var b strings.Builder
	fmt.Fprintf(&b, "## reload after a one-entity edit: full vs delta\n\n")
	fmt.Fprintf(&b, "| nodes | shards | source | changed | full (ms) | delta (ms) | x |\n")
	fmt.Fprintf(&b, "|---|---|---|---|---|---|---|\n")
	ms := func(ns int64) string { return fmt.Sprintf("%.3f", float64(ns)/1e6) }
	for _, p := range points {
		fmt.Fprintf(&b, "| %d | %d | %s | %d | %s | %s | %.2f |\n",
			p.Nodes, p.Shards, p.Source, p.ChangedShards, ms(p.FullNs), ms(p.DeltaNs), p.DeltaSpeedup)
	}
	return b.String()
}
