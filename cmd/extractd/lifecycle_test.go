package main

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"extract/internal/gen"
)

// errorEnvelope decodes the JSON error body every API endpoint must use.
func errorEnvelope(t *testing.T, rr *httptest.ResponseRecorder) string {
	t.Helper()
	if ct := rr.Header().Get("Content-Type"); ct != "application/json" {
		t.Errorf("error response Content-Type = %q, want application/json", ct)
	}
	var out struct {
		Error string `json:"error"`
	}
	if err := json.Unmarshal(rr.Body.Bytes(), &out); err != nil {
		t.Fatalf("error response not a JSON envelope: %v\n%s", err, rr.Body.String())
	}
	if out.Error == "" {
		t.Fatalf("error envelope with empty message: %s", rr.Body.String())
	}
	return out.Error
}

// TestHealthAndReadiness walks the lifecycle states /readyz distinguishes:
// loading (boot-time loads still running), ready, and draining — while
// /healthz stays 200 throughout (the process is alive in all of them).
func TestHealthAndReadiness(t *testing.T) {
	s := &server{datasets: map[string]*dataset{}}
	mux := s.routes()
	get := func(path string) *httptest.ResponseRecorder {
		rr := httptest.NewRecorder()
		mux.ServeHTTP(rr, httptest.NewRequest("GET", path, nil))
		return rr
	}

	// Not ready yet: liveness green, readiness 503, data endpoints 503.
	if rr := get("/healthz"); rr.Code != http.StatusOK {
		t.Fatalf("/healthz while loading: %d", rr.Code)
	}
	if rr := get("/readyz"); rr.Code != http.StatusServiceUnavailable {
		t.Fatalf("/readyz while loading: %d", rr.Code)
	} else if msg := errorEnvelope(t, rr); !strings.Contains(msg, "loading") {
		t.Errorf("/readyz loading message = %q", msg)
	}
	for _, path := range []string{"/", "/view", "/stats", "/reload"} {
		if rr := get(path); rr.Code != http.StatusServiceUnavailable {
			t.Errorf("%s while loading: %d, want 503", path, rr.Code)
		} else {
			errorEnvelope(t, rr)
		}
	}

	s.ready.Store(true)
	if rr := get("/readyz"); rr.Code != http.StatusOK {
		t.Fatalf("/readyz when ready: %d: %s", rr.Code, rr.Body.String())
	}

	s.draining.Store(true)
	if rr := get("/readyz"); rr.Code != http.StatusServiceUnavailable {
		t.Fatalf("/readyz while draining: %d", rr.Code)
	} else if msg := errorEnvelope(t, rr); !strings.Contains(msg, "draining") {
		t.Errorf("/readyz draining message = %q", msg)
	}
	if rr := get("/healthz"); rr.Code != http.StatusOK {
		t.Fatalf("/healthz while draining: %d", rr.Code)
	}
}

// TestErrorEnvelopes pins the JSON error shape across the API endpoints'
// failure paths — status codes unchanged, bodies always {"error": ...}.
func TestErrorEnvelopes(t *testing.T) {
	path := filepath.Join(t.TempDir(), "movies.xml")
	writeDataset(t, path, gen.Movies(gen.MoviesConfig{Movies: 4, Seed: 3}))
	s := fileServer(t, path)
	cases := []struct {
		method, url string
		code        int
	}{
		{"GET", "/reload?dataset=movies", http.StatusMethodNotAllowed},
		{"POST", "/reload?dataset=unknown", http.StatusNotFound},
		{"POST", "/reload?dataset=stores+%28Figure+5%29", http.StatusConflict},
		{"GET", "/view?dataset=unknown&q=x&result=0", http.StatusNotFound},
		{"GET", "/view?dataset=movies&q=movie&result=bogus", http.StatusBadRequest},
	}
	mux := s.routes()
	for _, c := range cases {
		rr := httptest.NewRecorder()
		mux.ServeHTTP(rr, httptest.NewRequest(c.method, c.url, nil))
		if rr.Code != c.code {
			t.Errorf("%s %s: status = %d, want %d", c.method, c.url, rr.Code, c.code)
			continue
		}
		errorEnvelope(t, rr)
	}

	// A failing reload reports 500 with the cause in the envelope.
	if err := os.WriteFile(path, []byte("<broken"), 0o644); err != nil {
		t.Fatal(err)
	}
	rr := httptest.NewRecorder()
	mux.ServeHTTP(rr, httptest.NewRequest("POST", "/reload?dataset=movies", nil))
	if rr.Code != http.StatusInternalServerError {
		t.Fatalf("broken reload: status = %d", rr.Code)
	}
	if msg := errorEnvelope(t, rr); !strings.Contains(msg, "reload failed") {
		t.Errorf("broken reload message = %q", msg)
	}
}

// TestReloadBackoffAndBreaker drives the watcher against a persistently
// corrupt source with an injected clock: attempts must space out
// exponentially, the dataset must go degraded in /readyz at the breaker
// threshold, the old corpus must serve throughout, and one successful
// reload must reset everything.
func TestReloadBackoffAndBreaker(t *testing.T) {
	path := filepath.Join(t.TempDir(), "movies.xml")
	good := gen.Movies(gen.MoviesConfig{Movies: 5, Seed: 11})
	writeDataset(t, path, good)
	s := fileServer(t, path)
	ds := s.datasets["movies"]
	before := ds.Corpus.Stats().Nodes
	mux := s.routes()

	clock := time.Unix(1_000_000_000, 0)
	s.now = func() time.Time { return clock }
	s.watchInterval = time.Minute

	failures := func() int {
		ds.obs.Lock()
		defer ds.obs.Unlock()
		return ds.failures
	}

	// Corrupt the source; the first tick attempts and fails.
	if err := os.WriteFile(path, []byte("<broken"), 0o644); err != nil {
		t.Fatal(err)
	}
	bumpMtime(t, path)
	s.checkFiles()
	if got := failures(); got != 1 {
		t.Fatalf("failures after first bad tick = %d, want 1", got)
	}

	// Within the backoff window nothing is attempted, however many ticks.
	for i := 0; i < 3; i++ {
		s.checkFiles()
	}
	if got := failures(); got != 1 {
		t.Fatalf("ticks inside the backoff window attempted reloads (failures = %d)", got)
	}

	// Advancing past each window retries once; the delay doubles, so
	// walking the clock in fixed 1-minute steps attempts less and less
	// often. 2^5 minutes of ticks is enough for exactly 5 total failures.
	minutes := 0
	for failures() < breakerThreshold && minutes < 64 {
		clock = clock.Add(time.Minute)
		minutes++
		s.checkFiles()
	}
	if got := failures(); got != breakerThreshold {
		t.Fatalf("failures = %d after %d minutes, want %d", got, minutes, breakerThreshold)
	}
	// 5 failures at delays 1+2+4+8 minutes after the first = attempt
	// minutes 1, 3, 7, 15: strictly more ticks than attempts.
	if minutes <= breakerThreshold {
		t.Fatalf("reached %d failures in %d minutes: backoff is not spacing attempts", breakerThreshold, minutes)
	}

	// Breaker open: /readyz degrades, naming the dataset; the old corpus
	// still serves, both directly and through /stats.
	rr := httptest.NewRecorder()
	mux.ServeHTTP(rr, httptest.NewRequest("GET", "/readyz", nil))
	if rr.Code != http.StatusServiceUnavailable {
		t.Fatalf("/readyz with open breaker: %d", rr.Code)
	}
	if msg := errorEnvelope(t, rr); !strings.Contains(msg, "movies") {
		t.Errorf("degraded message does not name the dataset: %q", msg)
	}
	if got := ds.Corpus.Stats().Nodes; got != before {
		t.Fatalf("failed reloads changed the corpus: %d -> %d nodes", before, got)
	}
	if _, err := ds.Corpus.Query("movie", 6); err != nil {
		t.Fatalf("degraded dataset stopped serving: %v", err)
	}

	// The source heals; after the current backoff window the watcher
	// reloads and everything resets.
	writeDataset(t, path, gen.Movies(gen.MoviesConfig{Movies: 9, Seed: 12}))
	bumpMtime(t, path)
	clock = clock.Add(time.Hour)
	s.checkFiles()
	if got := failures(); got != 0 {
		t.Fatalf("failures after recovery = %d, want 0", got)
	}
	rr = httptest.NewRecorder()
	mux.ServeHTTP(rr, httptest.NewRequest("GET", "/readyz", nil))
	if rr.Code != http.StatusOK {
		t.Fatalf("/readyz after recovery: %d: %s", rr.Code, rr.Body.String())
	}
	if got := ds.Corpus.Stats().Nodes; got == before {
		t.Fatal("recovered reload did not swap the new corpus in")
	}
}

// TestManualReloadBypassesBackoff: POST /reload is the operator's "try
// now" — it must attempt even while the watcher is backing off, and its
// success must reset the failure state.
func TestManualReloadBypassesBackoff(t *testing.T) {
	path := filepath.Join(t.TempDir(), "movies.xml")
	writeDataset(t, path, gen.Movies(gen.MoviesConfig{Movies: 5, Seed: 13}))
	s := fileServer(t, path)
	ds := s.datasets["movies"]
	s.watchInterval = time.Minute
	clock := time.Unix(2_000_000_000, 0)
	s.now = func() time.Time { return clock }

	if err := os.WriteFile(path, []byte("<broken"), 0o644); err != nil {
		t.Fatal(err)
	}
	bumpMtime(t, path)
	s.checkFiles() // fails, opens a backoff window

	writeDataset(t, path, gen.Movies(gen.MoviesConfig{Movies: 7, Seed: 14}))
	rr := httptest.NewRecorder()
	s.handleReload(rr, httptest.NewRequest("POST", "/reload?dataset=movies", nil))
	if rr.Code != http.StatusOK {
		t.Fatalf("manual reload during backoff: %d: %s", rr.Code, rr.Body.String())
	}
	ds.obs.Lock()
	failures, next := ds.failures, ds.retryAt
	ds.obs.Unlock()
	if failures != 0 || !next.IsZero() {
		t.Fatalf("manual reload did not reset failure state: failures=%d next=%v", failures, next)
	}
}
