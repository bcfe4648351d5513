package serve

import (
	"context"
	"fmt"
	"reflect"
	"strings"
	"testing"
	"time"

	"extract/internal/gen"
	"extract/internal/search"
	"extract/internal/shard"
	"extract/internal/telemetry"
)

// snapIndex indexes a registry snapshot by series key.
func snapIndex(reg *telemetry.Registry) map[string]telemetry.Metric {
	out := map[string]telemetry.Metric{}
	for _, m := range reg.Snapshot().Metrics {
		out[m.Key()] = m
	}
	return out
}

// TestStageHistograms pins what each lifecycle stage counts: admission and
// cache see every query, dispatch/eval see computed queries only, snippet
// sees computed Query (not Search) calls only, and the total histogram
// sees everything.
func TestStageHistograms(t *testing.T) {
	sc := shard.Build(gen.Figure1Corpus(), 2)
	reg := telemetry.NewRegistry()
	srv := New(sc, WithWorkers(2), WithTelemetry(reg))
	defer srv.Close()

	const q = "retailer texas"
	if _, _, err := srv.QueryContext(context.Background(), q, search.Options{}, 10); err != nil { // miss: computes + snippets
		t.Fatal(err)
	}
	if _, _, err := srv.QueryContext(context.Background(), q, search.Options{}, 10); err != nil { // hit
		t.Fatal(err)
	}
	if _, err := srv.Do(context.Background(), q+" zzz", search.Options{}, -1); err != nil { // miss, no snippet stage
		t.Fatal(err)
	}

	idx := snapIndex(reg)
	wantCounts := map[string]uint64{
		MetricQuerySeconds: 3,
		MetricQueryStageSeconds + "{stage=admission}": 3,
		MetricQueryStageSeconds + "{stage=cache}":     3,
		MetricQueryStageSeconds + "{stage=dispatch}":  2,
		MetricQueryStageSeconds + "{stage=eval}":      2,
		MetricQueryStageSeconds + "{stage=snippet}":   1,
	}
	for key, want := range wantCounts {
		m, ok := idx[key]
		if !ok || m.Histogram == nil {
			t.Fatalf("histogram %s not in snapshot", key)
		}
		if m.Histogram.Count != want {
			t.Errorf("%s count = %d, want %d", key, m.Histogram.Count, want)
		}
	}
	if v := idx["extract_query_cache_outcomes_total{outcome=hit}"].Value; v != 1 {
		t.Errorf("hit outcome count = %v, want 1", v)
	}
	if v := idx["extract_query_cache_outcomes_total{outcome=miss}"].Value; v != 2 {
		t.Errorf("miss outcome count = %v, want 2", v)
	}
}

// TestStatsMatchesRegistry pins counter unification: Stats() and the
// registry read the same instruments, so the numbers can never disagree.
func TestStatsMatchesRegistry(t *testing.T) {
	sc := shard.Build(gen.Figure1Corpus(), 2)
	reg := telemetry.NewRegistry()
	srv := New(sc, WithWorkers(2), WithTelemetry(reg))
	defer srv.Close()

	for i := 0; i < 3; i++ {
		if _, err := srv.Do(context.Background(), "retailer texas", search.Options{}, -1); err != nil {
			t.Fatal(err)
		}
	}
	st := srv.Stats()
	idx := snapIndex(reg)
	pairs := map[string]int64{
		"extract_cache_hits_total":      st.Hits,
		"extract_cache_misses_total":    st.Misses,
		"extract_cache_coalesced_total": st.Coalesced,
		"extract_query_panics_total":    st.Panics,
		"extract_queries_shed_total":    st.Shed,
		"extract_cache_entries":         st.Entries,
		"extract_cache_bytes":           st.Bytes,
		"extract_cache_capacity_bytes":  st.Capacity,
	}
	for name, want := range pairs {
		m, ok := idx[name]
		if !ok {
			t.Fatalf("metric %s not in snapshot", name)
		}
		if int64(m.Value) != want {
			t.Errorf("%s = %v, registry disagrees with Stats %d", name, m.Value, want)
		}
	}
	if st.Hits == 0 || st.Misses == 0 {
		t.Fatalf("test exercised no cache traffic: %+v", st)
	}
}

// TestSlowQueryHook pins the hook contract: every query at or above the
// threshold is reported with its total, stage breakdown and cache outcome;
// with a zero-effective threshold even a cache hit reports (with no
// compute stages). The record is the trace ring's record plus the query's
// tokenized keywords: the raw query string never leaves this package, and
// the ring's copy of the same query carries no keywords at all.
func TestSlowQueryHook(t *testing.T) {
	sc := shard.Build(gen.Figure1Corpus(), 2)
	var recs []telemetry.QueryTrace
	srv := New(sc, WithWorkers(2),
		WithSlowQueries(time.Nanosecond, func(r telemetry.QueryTrace) { recs = append(recs, r) }))
	defer srv.Close()

	const q = "Retailer, TEXAS!"
	if _, _, err := srv.QueryContext(context.Background(), q, search.Options{}, 10); err != nil {
		t.Fatal(err)
	}
	if _, _, err := srv.QueryContext(context.Background(), q, search.Options{}, 10); err != nil {
		t.Fatal(err)
	}
	if len(recs) != 2 {
		t.Fatalf("hook fired %d times, want 2", len(recs))
	}
	miss, hit := recs[0], recs[1]
	if miss.ID == 0 || miss.Cache != "miss" || miss.Err != "" || miss.Results == 0 || miss.Kept != "" {
		t.Fatalf("miss record wrong: %+v", miss)
	}
	for _, r := range recs {
		if !reflect.DeepEqual(r.Keywords, []string{"retailer", "texas"}) {
			t.Fatalf("keywords = %q, want the tokenized query", r.Keywords)
		}
		rec := fmt.Sprintf("%+v", r)
		for _, leak := range []string{q, "Retailer", "TEXAS", "!"} {
			if strings.Contains(rec, leak) {
				t.Fatalf("raw query text %q in the slow record: %s", leak, rec)
			}
		}
	}
	stageSet := func(r telemetry.QueryTrace) map[string]bool {
		out := map[string]bool{}
		for _, st := range r.Stages {
			out[st.Name] = true
		}
		return out
	}
	for _, st := range []string{"admission", "cache", "dispatch", "eval", "snippet"} {
		if !stageSet(miss)[st] {
			t.Errorf("miss record lacks stage %q: %v", st, miss.Stages)
		}
	}
	if miss.Total <= 0 {
		t.Fatalf("miss total = %v", miss.Total)
	}
	if hit.Cache != "hit" {
		t.Fatalf("second query not a hit: %+v", hit)
	}
	for _, st := range []string{"dispatch", "eval", "snippet"} {
		if stageSet(hit)[st] {
			t.Errorf("hit record has compute stage %q", st)
		}
	}
	// The first query is always sampled: the ring holds the miss under the
	// same ID, without keywords.
	var found bool
	for _, qt := range srv.RecentTraces() {
		if len(qt.Keywords) != 0 {
			t.Fatalf("retained trace carries keywords: %+v", qt)
		}
		found = found || qt.ID == miss.ID
	}
	if !found {
		t.Fatalf("trace %016x not retained", miss.ID)
	}
}

// TestSlowQueryErrKinds pins the error classification the slow-query log
// and extract_query_errors_total rely on.
func TestSlowQueryErrKinds(t *testing.T) {
	sc := shard.Build(gen.Figure1Corpus(), 2)
	reg := telemetry.NewRegistry()
	var recs []telemetry.QueryTrace
	srv := New(sc, WithWorkers(2), WithTelemetry(reg), WithMaxInFlight(1), WithQueryTimeout(time.Hour),
		WithSlowQueries(time.Nanosecond, func(r telemetry.QueryTrace) { recs = append(recs, r) }))
	defer srv.Close()

	if _, err := srv.Do(context.Background(), "", search.Options{}, -1); err == nil {
		t.Fatal("empty query served")
	}
	idx := snapIndex(reg)
	if v := idx["extract_query_errors_total{kind=empty}"].Value; v != 1 {
		t.Fatalf("empty-kind errors = %v, want 1", v)
	}
	if len(recs) != 1 || recs[0].Err != "empty" {
		t.Fatalf("slow record for empty query: %+v", recs)
	}
	if strings.Contains(recs[0].Cache, "hit") {
		t.Fatalf("failed query has cache outcome %q", recs[0].Cache)
	}
}

// TestFallbackCounter: extract_query_fallbacks_total counts the computed
// queries whose sharded merge went to the whole document — here, the label
// of the document root, which no shard-local answer can express — once per
// computation: a replay from the cache and a query answered inside the
// shards count nothing, and the series exists at zero before any query.
func TestFallbackCounter(t *testing.T) {
	doc := gen.Figure1Corpus()
	root := doc.Root.Label
	sc := shard.Build(doc, 2)
	if sc.NumShards() < 2 {
		t.Fatalf("%d shards", sc.NumShards())
	}
	reg := telemetry.NewRegistry()
	srv := New(sc, WithWorkers(2), WithTelemetry(reg))
	defer srv.Close()

	const series = "extract_query_fallbacks_total"
	if m, ok := snapIndex(reg)[series]; !ok || m.Value != 0 {
		t.Fatalf("%s before any query: %v, registered %v", series, m.Value, ok)
	}
	for i, step := range []struct {
		query string
		want  float64
	}{{"retailer texas", 0}, {root, 1}, {root, 1}, {root + " texas", 2}} {
		rs, _, err := srv.QueryContext(context.Background(), step.query, search.Options{}, 6)
		if err != nil || len(rs) == 0 {
			t.Fatalf("step %d %q: %d results, err %v", i, step.query, len(rs), err)
		}
		if got := snapIndex(reg)[series].Value; got != step.want {
			t.Fatalf("step %d %q: %s = %v, want %v", i, step.query, series, got, step.want)
		}
	}
}

// TestWarmHitAllocations pins what one cache hit allocates through Do on a
// local backend with no slow-query hook: the query's trace, its parsed
// terms and cache key, and nothing for the trace ring or the slow-query
// record — the fill closure Do hands the ring must stay on the stack. The
// ring is primed past its first lap, so sampled slots reuse their capacity.
func TestWarmHitAllocations(t *testing.T) {
	srv := New(shard.Build(gen.Figure1Corpus(), 2), WithWorkers(1))
	defer srv.Close()
	ctx := context.Background()
	const q = "retailer texas"
	for i := 0; i < traceSampleEvery*traceRingSize+traceSlowSize; i++ {
		if _, err := srv.Do(ctx, q, search.Options{}, 6); err != nil {
			t.Fatal(err)
		}
	}
	allocs := testing.AllocsPerRun(500, func() {
		if _, err := srv.Do(ctx, q, search.Options{}, 6); err != nil {
			t.Fatal(err)
		}
	})
	// Pinned exactly: more is a regression on every warm hit, fewer means
	// the pin should move down with the change that earned it.
	const want = 10
	if allocs != want {
		t.Errorf("a warm hit allocates %v objects, want %d", allocs, want)
	}
}
