package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"html/template"
	"net/http/httptest"
	"os"
	"reflect"
	"regexp"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"extract"
	"extract/internal/gen"
	"extract/internal/ingest"
	"extract/internal/remote"
	"extract/internal/shard"
	"extract/internal/telemetry"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata golden files")

// valueRe strips the sample value (and any trailing spaces) from a
// Prometheus series line, leaving the structural part: name, labels.
var valueRe = regexp.MustCompile(` [^ ]+$`)

// normalizeExposition strips values from an exposition so the structure —
// which families, series and labels exist, in what order, with what
// HELP/TYPE headers — compares exactly while timings and counts vary
// freely.
func normalizeExposition(s string) string {
	lines := strings.Split(strings.TrimRight(s, "\n"), "\n")
	for i, l := range lines {
		if strings.HasPrefix(l, "#") {
			continue
		}
		lines[i] = valueRe.ReplaceAllString(l, "")
	}
	return strings.Join(lines, "\n") + "\n"
}

// TestMetricsGolden pins the /metrics surface: after a miss, a hit and a
// reload, the exposition's families, series and labels must match the
// golden file structurally. A metric renamed, dropped, or grown a label
// fails here (and must be reflected in OBSERVABILITY.md, which the root
// package's doc-diff test checks against the same registry).
func TestMetricsGolden(t *testing.T) {
	s := testServer(t)
	ds := s.datasets["stores (Figure 5)"]
	if _, err := ds.Corpus.Query("store texas", 6); err != nil { // miss: all stages record
		t.Fatal(err)
	}
	if _, err := ds.Corpus.Query("store texas", 6); err != nil { // hit
		t.Fatal(err)
	}
	// A swap reload registers the reload histogram and outcome counter.
	ds.Corpus.Reload(extract.FromDocument(gen.Figure5Corpus(), nil))

	rr := httptest.NewRecorder()
	s.routes().ServeHTTP(rr, httptest.NewRequest("GET", "/metrics", nil))
	if rr.Code != 200 {
		t.Fatalf("GET /metrics = %d: %s", rr.Code, rr.Body.String())
	}
	if ct := rr.Header().Get("Content-Type"); !strings.HasPrefix(ct, "text/plain; version=0.0.4") {
		t.Fatalf("Content-Type = %q", ct)
	}
	got := normalizeExposition(rr.Body.String())

	const goldenPath = "testdata/metrics.golden"
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenPath, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatalf("%v (run with -update to regenerate)", err)
	}
	if got != string(want) {
		t.Fatalf("metrics structure drifted from %s (run with -update if intended):\n--- got ---\n%s", goldenPath, got)
	}
}

// TestMetricsMultiDatasetHeaders pins the merge property: with several
// datasets sharing metric names, each family keeps exactly one HELP and
// one TYPE header (the text format forbids repeats).
func TestMetricsMultiDatasetHeaders(t *testing.T) {
	s := testServer(t)
	s.add("movies", extract.FromDocument(gen.Movies(gen.MoviesConfig{Movies: 5, Seed: 7}), nil), "")
	rr := httptest.NewRecorder()
	s.routes().ServeHTTP(rr, httptest.NewRequest("GET", "/metrics", nil))
	if rr.Code != 200 {
		t.Fatalf("GET /metrics = %d", rr.Code)
	}
	seen := map[string]int{}
	for _, l := range strings.Split(rr.Body.String(), "\n") {
		if strings.HasPrefix(l, "# TYPE ") {
			seen[l]++
		}
	}
	if len(seen) == 0 {
		t.Fatal("no TYPE headers in exposition")
	}
	for l, n := range seen {
		if n != 1 {
			t.Errorf("%q emitted %d times, want 1", l, n)
		}
	}
	if !strings.Contains(rr.Body.String(), `dataset="movies"`) {
		t.Error("movies dataset missing from merged exposition")
	}
}

// TestShardServerMetricsGolden pins the shard-server /metrics surface
// (-shard-server -metrics-addr): every series is pre-registered, so the
// exposition's structure must match the golden from the very first scrape,
// before any request has been served.
func TestShardServerMetricsGolden(t *testing.T) {
	reg := telemetry.NewRegistry()
	sc := shard.Build(gen.Figure5Corpus(), 2)
	src := ingest.SourceOf(sc)
	srv := remote.NewServer(sc,
		remote.WithOwnedShards(remote.OwnedShards(src, 0, 1)),
		remote.WithServerTelemetry(reg))
	var draining atomic.Bool
	mux := shardServerMux(reg, srv, &draining)

	rr := httptest.NewRecorder()
	mux.ServeHTTP(rr, httptest.NewRequest("GET", "/metrics", nil))
	if rr.Code != 200 {
		t.Fatalf("GET /metrics = %d: %s", rr.Code, rr.Body.String())
	}
	if ct := rr.Header().Get("Content-Type"); !strings.HasPrefix(ct, "text/plain; version=0.0.4") {
		t.Fatalf("Content-Type = %q", ct)
	}
	got := normalizeExposition(rr.Body.String())

	const goldenPath = "testdata/shard_server_metrics.golden"
	if *updateGolden {
		if err := os.WriteFile(goldenPath, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatalf("%v (run with -update to regenerate)", err)
	}
	if got != string(want) {
		t.Fatalf("shard-server metrics structure drifted from %s (run with -update if intended):\n--- got ---\n%s", goldenPath, got)
	}
}

// TestShardServerHealthz pins the shard-server health surface: generation
// fingerprint, owned shard set, and the drain flip at shutdown.
func TestShardServerHealthz(t *testing.T) {
	reg := telemetry.NewRegistry()
	sc := shard.Build(gen.Figure5Corpus(), 2)
	src := ingest.SourceOf(sc)
	srv := remote.NewServer(sc,
		remote.WithOwnedShards(remote.OwnedShards(src, 0, 1)),
		remote.WithServerTelemetry(reg))
	var draining atomic.Bool
	mux := shardServerMux(reg, srv, &draining)

	get := func() map[string]any {
		rr := httptest.NewRecorder()
		mux.ServeHTTP(rr, httptest.NewRequest("GET", "/healthz", nil))
		if rr.Code != 200 {
			t.Fatalf("GET /healthz = %d: %s", rr.Code, rr.Body.String())
		}
		var m map[string]any
		if err := json.Unmarshal(rr.Body.Bytes(), &m); err != nil {
			t.Fatalf("healthz is not JSON: %v\n%s", err, rr.Body.String())
		}
		return m
	}
	m := get()
	if m["status"] != "ok" || m["draining"] != false {
		t.Fatalf("healthz before drain: %v", m)
	}
	fp, _ := m["fingerprint"].(string)
	if len(fp) != 16 || fp == "0000000000000000" {
		t.Fatalf("fingerprint = %q, want 16 hex digits", fp)
	}
	owned, _ := m["shards_owned"].([]any)
	if len(owned) != 2 || m["shards_total"] != float64(2) {
		t.Fatalf("one group of one must own both shards: %v", m)
	}
	draining.Store(true)
	if m := get(); m["status"] != "draining" || m["draining"] != true {
		t.Fatalf("healthz after drain: %v", m)
	}
}

// TestSlowQueryLogSanitized pins the slow-query log's privacy contract:
// the line carries tokenized keywords and stage timings, never the raw
// query string; a failed query carries an error class, never an error
// message.
func TestSlowQueryLogSanitized(t *testing.T) {
	var buf bytes.Buffer
	s := &server{datasets: map[string]*dataset{}, shards: 1, cacheBytes: -1,
		slowQuery: time.Nanosecond, slowW: &buf}
	const name = "stores (Figure 5)"
	s.add(name, extract.FromDocument(gen.Figure5Corpus(), nil, s.loadOptions(name)...), "")
	s.tmpl = template.Must(template.New("page").Parse(pageHTML))
	s.ready.Store(true)

	const rawQuery = "TeXaS, store!!"
	ds := s.datasets["stores (Figure 5)"]
	if _, err := ds.Corpus.Query(rawQuery, 6); err != nil {
		t.Fatal(err)
	}

	line := strings.TrimSpace(buf.String())
	if line == "" {
		t.Fatal("no slow-query line logged at a 1ns threshold")
	}
	var rec queryLine
	if err := json.Unmarshal([]byte(line), &rec); err != nil {
		t.Fatalf("slow-query line is not one JSON object: %v\n%s", err, line)
	}
	if rec.Dataset != "stores (Figure 5)" || rec.TotalMs <= 0 || rec.Error != "" {
		t.Fatalf("record fields wrong: %+v", rec)
	}
	if len(rec.Keywords) != 2 || rec.Keywords[0] != "texas" || rec.Keywords[1] != "store" {
		t.Fatalf("keywords = %v, want tokenized [texas store]", rec.Keywords)
	}
	// The raw values must not leak: not the query string as typed, not
	// its casing, not its punctuation.
	for _, leak := range []string{"TeXaS", "store!!", rawQuery} {
		if strings.Contains(buf.String(), leak) {
			t.Fatalf("raw query text %q leaked into the log: %s", leak, buf.String())
		}
	}
	if rec.Cache != "miss" {
		t.Fatalf("cache outcome = %q, want miss", rec.Cache)
	}
	for _, st := range []string{"admission", "cache", "dispatch", "eval", "snippet"} {
		if _, ok := rec.StagesMs[st]; !ok {
			t.Fatalf("stage %q missing from %v", st, rec.StagesMs)
		}
	}

	// A query of more than maxLoggedKeywords tokens logs exactly the first
	// 16, tokenized.
	var long, want []string
	for i := 1; i <= 20; i++ {
		long = append(long, fmt.Sprintf("Kw%02d", i))
		if i <= 16 {
			want = append(want, fmt.Sprintf("kw%02d", i))
		}
	}
	buf.Reset()
	if _, err := ds.Corpus.Query(strings.Join(long, " "), 6); err != nil {
		t.Fatal(err)
	}
	var longRec queryLine
	if err := json.Unmarshal(bytes.TrimSpace(buf.Bytes()), &longRec); err != nil {
		t.Fatalf("slow-query line is not one JSON object: %v\n%s", err, buf.String())
	}
	if !reflect.DeepEqual(longRec.Keywords, want) {
		t.Fatalf("keywords of a 20-token query = %v, want the first 16 tokens %v", longRec.Keywords, want)
	}
}

// TestPprofOptIn pins that /debug/pprof/ exists only behind -pprof.
func TestPprofOptIn(t *testing.T) {
	// Without -pprof the catch-all route serves the search UI at any path,
	// so the signal is the body: no profile index may appear.
	s := testServer(t)
	rr := httptest.NewRecorder()
	s.routes().ServeHTTP(rr, httptest.NewRequest("GET", "/debug/pprof/", nil))
	if strings.Contains(rr.Body.String(), "profiles") {
		t.Fatal("pprof index served without -pprof")
	}
	s.pprofEnabled = true
	rr = httptest.NewRecorder()
	s.routes().ServeHTTP(rr, httptest.NewRequest("GET", "/debug/pprof/", nil))
	if rr.Code != 200 || !strings.Contains(rr.Body.String(), "profiles") {
		t.Fatalf("pprof index with -pprof on: code=%d", rr.Code)
	}
}
