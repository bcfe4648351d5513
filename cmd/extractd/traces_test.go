package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"html/template"
	"log"
	"net"
	"net/http"
	"net/http/httptest"
	"regexp"
	"strings"
	"testing"
	"time"

	"extract"
	"extract/internal/gen"
	"extract/internal/ingest"
	"extract/internal/remote"
	"extract/internal/shard"
)

// TestDebugTraces pins GET /debug/traces: 503 before readiness, 405 for
// anything but GET, and per dataset a list of entries in the documented
// schema — the same record the slow-query log writes, under the same
// trace_id, minus the query: no entry carries keywords, a dataset field or
// any of the raw query text.
func TestDebugTraces(t *testing.T) {
	var slow bytes.Buffer
	s := &server{datasets: map[string]*dataset{}, shards: 1, cacheBytes: -1,
		slowQuery: time.Nanosecond, slowW: &slow}
	const name = "stores (Figure 5)"
	s.add(name, extract.FromDocument(gen.Figure5Corpus(), nil, s.loadOptions(name)...), "")
	s.tmpl = template.Must(template.New("page").Parse(pageHTML))
	mux := s.routes()
	serve := func(method, path string) *httptest.ResponseRecorder {
		rr := httptest.NewRecorder()
		mux.ServeHTTP(rr, httptest.NewRequest(method, path, nil))
		return rr
	}

	if rr := serve("GET", "/debug/traces"); rr.Code != http.StatusServiceUnavailable {
		t.Fatalf("/debug/traces before readiness: %d, want 503", rr.Code)
	}
	s.ready.Store(true)
	if rr := serve("POST", "/debug/traces"); rr.Code != http.StatusMethodNotAllowed {
		t.Fatalf("POST /debug/traces: %d, want 405", rr.Code)
	}

	if rr := serve("GET", "/?dataset=stores+%28Figure+5%29&q=TeXaS%2C+Store%21%21&bound=6"); rr.Code != http.StatusOK {
		t.Fatalf("search: %d", rr.Code)
	}
	rr := serve("GET", "/debug/traces")
	if rr.Code != http.StatusOK {
		t.Fatalf("/debug/traces: %d: %s", rr.Code, rr.Body.String())
	}
	for _, leak := range []string{"TeXaS", "texas", "Store!!", "store!!"} {
		if strings.Contains(rr.Body.String(), leak) {
			t.Fatalf("raw query text %q in /debug/traces: %s", leak, rr.Body.String())
		}
	}
	var all map[string][]map[string]any
	if err := json.Unmarshal(rr.Body.Bytes(), &all); err != nil {
		t.Fatalf("/debug/traces is not JSON: %v\n%s", err, rr.Body.String())
	}
	entries := all[name]
	if len(entries) == 0 {
		t.Fatalf("no trace for %q after a query: %s", name, rr.Body.String())
	}
	hex16 := regexp.MustCompile(`^[0-9a-f]{16}$`)
	ids := map[string]bool{}
	for _, e := range entries {
		id, _ := e["trace_id"].(string)
		if !hex16.MatchString(id) {
			t.Fatalf("trace_id %q is not 16 hex digits: %v", id, e)
		}
		ids[id] = true
		for _, field := range []string{"ts", "total_ms", "stages_ms", "cache", "results", "kept"} {
			if _, ok := e[field]; !ok {
				t.Fatalf("trace entry lacks %q: %v", field, e)
			}
		}
		for _, field := range []string{"hops", "keywords", "dataset"} {
			if _, ok := e[field]; ok {
				t.Fatalf("trace entry of a local dataset carries %q: %v", field, e)
			}
		}
	}

	// The slow-query line of the same query carries a trace_id the ring
	// holds (the first query is always sampled).
	var line map[string]any
	first, _, _ := strings.Cut(slow.String(), "\n")
	if err := json.Unmarshal([]byte(first), &line); err != nil {
		t.Fatalf("slow-query line is not JSON: %v\n%s", err, slow.String())
	}
	if id, _ := line["trace_id"].(string); !ids[id] {
		t.Fatalf("slow-query trace_id %q is not in /debug/traces %v", id, ids)
	}
	if _, ok := line["keywords"]; !ok {
		t.Fatalf("slow-query line lacks keywords: %v", line)
	}
	if _, ok := line["kept"]; ok {
		t.Fatalf("slow-query line carries kept: %v", line)
	}
}

// TestRemoteDatasetCounts: a dataset served through a shard tier has no
// node counts (they stay with the data), so the page status line and the
// reload log line report its element count, which the router knows, and
// the POST /reload response omits "nodes" rather than report 0. Its
// /debug/traces entries carry the router's hops.
func TestRemoteDatasetCounts(t *testing.T) {
	dir := t.TempDir()
	if err := ingest.Snapshot(dir, shard.Build(snapshotDoc(false), 3)); err != nil {
		t.Fatal(err)
	}
	served, err := ingest.Load(dir)
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := remote.NewServer(served.Corpus, remote.WithOwnedShards(remote.OwnedShards(served.Source, 0, 1)))
	go srv.Serve(ln)
	defer srv.Close()
	local, err := extract.LoadSnapshot(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer local.Close()
	elements := local.Stats().Elements
	if elements == 0 {
		t.Fatal("local corpus has no elements")
	}

	s := &server{datasets: map[string]*dataset{}, shards: 1, cacheBytes: -1}
	c, err := extract.Connect(dir, [][]string{{ln.Addr().String()}}, s.loadOptions("remote")...)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	s.addSnapshot("remote", c, dir)
	s.tmpl = template.Must(template.New("page").Parse(pageHTML))
	s.ready.Store(true)
	mux := s.routes()
	serve := func(method, path string) *httptest.ResponseRecorder {
		rr := httptest.NewRecorder()
		mux.ServeHTTP(rr, httptest.NewRequest(method, path, nil))
		return rr
	}

	rr := serve("GET", "/?dataset=remote&q=store+texas&bound=6")
	if rr.Code != http.StatusOK {
		t.Fatalf("search: %d", rr.Code)
	}
	if want := fmt.Sprintf("%d elements, entities:", elements); !strings.Contains(rr.Body.String(), want) {
		t.Fatalf("status line lacks %q", want)
	}

	var logged bytes.Buffer
	logTo := log.Writer()
	log.SetOutput(&logged)
	rr = serve("POST", "/reload?dataset=remote")
	log.SetOutput(logTo)
	if rr.Code != http.StatusOK {
		t.Fatalf("reload: %d: %s", rr.Code, rr.Body.String())
	}
	var out map[string]any
	if err := json.Unmarshal(rr.Body.Bytes(), &out); err != nil {
		t.Fatal(err)
	}
	if _, ok := out["nodes"]; ok {
		t.Fatalf("remote reload response reports nodes: %v", out)
	}
	if out["dataset"] != "remote" || out["shards"] != float64(3) {
		t.Fatalf("reload response = %v", out)
	}
	if want := fmt.Sprintf("%d elements)", elements); !strings.Contains(logged.String(), want) {
		t.Fatalf("reload log line lacks %q: %q", want, logged.String())
	}

	rr = serve("GET", "/debug/traces")
	var all map[string][]map[string]any
	if err := json.Unmarshal(rr.Body.Bytes(), &all); err != nil {
		t.Fatal(err)
	}
	hops := false
	for _, e := range all["remote"] {
		_, ok := e["hops"]
		hops = hops || ok
	}
	if !hops {
		t.Fatalf("no remote trace entry carries hops: %v", all["remote"])
	}
}
