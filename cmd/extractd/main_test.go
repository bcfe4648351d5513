package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"html/template"
	"log"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"extract"
	"extract/internal/faultinject"
	"extract/internal/gen"
	"extract/xmltree"
)

func testServer(t *testing.T) *server {
	t.Helper()
	s := &server{datasets: map[string]*dataset{}, shards: 1, cacheBytes: -1}
	s.add("stores (Figure 5)", extract.FromDocument(gen.Figure5Corpus(), nil), "")
	s.tmpl = template.Must(template.New("page").Parse(pageHTML))
	s.ready.Store(true)
	return s
}

func TestHandleSearch(t *testing.T) {
	s := testServer(t)
	req := httptest.NewRequest("GET", "/?dataset=stores+%28Figure+5%29&q=store+texas&bound=6", nil)
	rr := httptest.NewRecorder()
	s.handleSearch(rr, req)
	if rr.Code != http.StatusOK {
		t.Fatalf("status = %d", rr.Code)
	}
	body := rr.Body.String()
	for _, want := range []string{"Levis", "ESprit", "<mark>", "view full result", "IList:"} {
		if !strings.Contains(body, want) {
			t.Errorf("body missing %q", want)
		}
	}
}

func TestHandleSearchEmptyQuery(t *testing.T) {
	s := testServer(t)
	rr := httptest.NewRecorder()
	s.handleSearch(rr, httptest.NewRequest("GET", "/", nil))
	if rr.Code != http.StatusOK {
		t.Fatalf("status = %d", rr.Code)
	}
	if !strings.Contains(rr.Body.String(), "eXtract") {
		t.Error("landing page broken")
	}
}

func TestHandleSearchNoResults(t *testing.T) {
	s := testServer(t)
	rr := httptest.NewRecorder()
	s.handleSearch(rr, httptest.NewRequest("GET", "/?dataset=stores+%28Figure+5%29&q=zzzz", nil))
	if !strings.Contains(rr.Body.String(), "No results") {
		t.Error("no-results message missing")
	}
}

func TestHandleView(t *testing.T) {
	s := testServer(t)
	rr := httptest.NewRecorder()
	s.handleView(rr, httptest.NewRequest("GET", "/view?dataset=stores+%28Figure+5%29&q=store+texas&result=0", nil))
	if rr.Code != http.StatusOK {
		t.Fatalf("status = %d", rr.Code)
	}
	if !strings.Contains(rr.Body.String(), "<name>Levis</name>") {
		t.Errorf("view body:\n%s", rr.Body.String())
	}
}

func TestHandleViewErrors(t *testing.T) {
	s := testServer(t)
	cases := []struct {
		url  string
		code int
	}{
		{"/view?dataset=unknown&q=x&result=0", http.StatusNotFound},
		{"/view?dataset=stores+%28Figure+5%29&q=store&result=-1", http.StatusBadRequest},
		{"/view?dataset=stores+%28Figure+5%29&q=store&result=999", http.StatusNotFound},
		{"/view?dataset=stores+%28Figure+5%29&q=store&result=x", http.StatusBadRequest},
	}
	for _, c := range cases {
		rr := httptest.NewRecorder()
		s.handleView(rr, httptest.NewRequest("GET", c.url, nil))
		if rr.Code != c.code {
			t.Errorf("%s: status = %d, want %d", c.url, rr.Code, c.code)
		}
	}
}

// TestQueryFailuresAreSanitized: a failed evaluation reaches neither page
// as its error text — a recovered panic's value may carry document text — and
// /view reports it as a failure, not as a missing result.
func TestQueryFailuresAreSanitized(t *testing.T) {
	defer faultinject.Reset()
	faultinject.Set(faultinject.ShardEval, func() error { panic("secret-42") })
	s := testServer(t)
	rr := httptest.NewRecorder()
	s.handleSearch(rr, httptest.NewRequest("GET", "/?dataset=stores+%28Figure+5%29&q=store+texas", nil))
	if body := rr.Body.String(); strings.Contains(body, "secret-42") || !strings.Contains(body, "query failed") {
		t.Errorf("search page after a panic (status %d): %s", rr.Code, body)
	}
	rr = httptest.NewRecorder()
	s.handleView(rr, httptest.NewRequest("GET", "/view?dataset=stores+%28Figure+5%29&q=store&result=0", nil))
	if rr.Code != http.StatusInternalServerError || strings.Contains(rr.Body.String(), "secret-42") {
		t.Errorf("view after a panic: status %d, body %q; want 500 without the panic value", rr.Code, rr.Body.String())
	}
	faultinject.Reset()
	rr = httptest.NewRecorder()
	s.handleView(rr, httptest.NewRequest("GET", "/view?dataset=stores+%28Figure+5%29&q=&result=0", nil))
	if rr.Code != http.StatusNotFound {
		t.Errorf("view of an empty query: status %d, want 404", rr.Code)
	}
}

// TestResultGoneIsRetryable: a routed result's tree read after the tier
// moved generation (extract.ErrResultGone, which the text window and /view
// hit) is a 503 the client may retry at once, not a failed query.
func TestResultGoneIsRetryable(t *testing.T) {
	rr := httptest.NewRecorder()
	code, msg := queryFailure(rr, fmt.Errorf("tree: %w", extract.ErrResultGone))
	if code != http.StatusServiceUnavailable || rr.Header().Get("Retry-After") == "" || !strings.Contains(msg, "retry") {
		t.Fatalf("ErrResultGone: status %d, Retry-After %q, message %q", code, rr.Header().Get("Retry-After"), msg)
	}
}

// TestViewRefusesResultPastLimit: a search page links at most maxPageHits
// results, so an index at or past that — the value whose +1 overflows
// included — is answered 404 without evaluating anything.
func TestViewRefusesResultPastLimit(t *testing.T) {
	defer faultinject.Reset()
	var evals atomic.Int64
	faultinject.Set(faultinject.ShardEval, func() error { evals.Add(1); return nil })
	s := testServer(t)
	view := func(result string) int {
		rr := httptest.NewRecorder()
		s.handleView(rr, httptest.NewRequest("GET", "/view?dataset=stores+%28Figure+5%29&q=store&result="+result, nil))
		return rr.Code
	}
	for _, result := range []string{"9223372036854775807", strconv.Itoa(maxPageHits)} {
		if code := view(result); code != http.StatusNotFound {
			t.Errorf("result=%s: status = %d, want 404", result, code)
		}
	}
	if n := evals.Load(); n != 0 {
		t.Fatalf("refused requests ran %d shard evaluations, want 0", n)
	}
	if code := view("0"); code != http.StatusOK || evals.Load() == 0 {
		t.Fatalf("result=0: status = %d after %d counted evaluations; the hook must see a served view", code, evals.Load())
	}
}

// TestViewLinksShareOneEntry: every view link of one query is evaluated
// under the same bound, so they are one computation and one cache entry.
func TestViewLinksShareOneEntry(t *testing.T) {
	s := testServer(t)
	for i := 0; i < maxPageHits; i++ {
		rr := httptest.NewRecorder()
		s.handleView(rr, httptest.NewRequest("GET", fmt.Sprintf("/view?dataset=stores+%%28Figure+5%%29&q=store&result=%d", i), nil))
		if rr.Code != http.StatusOK && rr.Code != http.StatusNotFound {
			t.Fatalf("result=%d: status = %d", i, rr.Code)
		}
	}
	st, _ := s.datasets["stores (Figure 5)"].Corpus.QueryCacheStats()
	if st.Entries != 1 || st.Misses != 1 || st.Hits != maxPageHits-1 {
		t.Fatalf("%d view links of one query: %+v, want one entry computed once", maxPageHits, st)
	}
}

func TestSuggestionsInForm(t *testing.T) {
	s := testServer(t)
	rr := httptest.NewRecorder()
	s.handleSearch(rr, httptest.NewRequest("GET", "/?dataset=stores+%28Figure+5%29&q=jea", nil))
	if !strings.Contains(rr.Body.String(), `value="jeans"`) {
		t.Error("datalist suggestion for 'jea' missing")
	}
}

func TestHandleStats(t *testing.T) {
	s := testServer(t)
	sharded := extract.FromDocumentSharded(gen.Movies(gen.MoviesConfig{Movies: 10, Seed: 7}), nil, 3)
	s.add("movies-sharded", sharded, "")
	if _, err := sharded.Query("movie", 6); err != nil {
		t.Fatal(err)
	}
	if _, err := sharded.Query("movie", 6); err != nil { // second hit must be served from cache
		t.Fatal(err)
	}
	// The unsharded dataset serves through the same layer and caches too.
	unsharded := s.datasets["stores (Figure 5)"].Corpus
	for i := 0; i < 2; i++ {
		if _, err := unsharded.Query("store texas", 6); err != nil {
			t.Fatal(err)
		}
	}

	rr := httptest.NewRecorder()
	s.handleStats(rr, httptest.NewRequest("GET", "/stats", nil))
	if rr.Code != http.StatusOK {
		t.Fatalf("status = %d", rr.Code)
	}
	var out map[string]struct {
		Shards int `json:"shards"`
		Cache  *struct {
			Hits   int64 `json:"hits"`
			Misses int64 `json:"misses"`
		} `json:"cache"`
	}
	if err := json.Unmarshal(rr.Body.Bytes(), &out); err != nil {
		t.Fatalf("stats not JSON: %v\n%s", err, rr.Body.String())
	}
	urow, ok := out["stores (Figure 5)"]
	if !ok || urow.Shards != 1 || urow.Cache == nil {
		t.Fatalf("unsharded dataset must report cache stats: %+v ok=%v", urow, ok)
	}
	if urow.Cache.Hits < 1 || urow.Cache.Misses < 1 {
		t.Errorf("unsharded cache counters not moving: %+v", *urow.Cache)
	}
	row, ok := out["movies-sharded"]
	if !ok || row.Shards != 3 || row.Cache == nil {
		t.Fatalf("sharded dataset stats wrong: %+v ok=%v", row, ok)
	}
	if row.Cache.Hits < 1 || row.Cache.Misses < 1 {
		t.Errorf("cache counters not moving: %+v", *row.Cache)
	}
}

// writeDataset serializes a generated corpus to an XML file on disk.
func writeDataset(t *testing.T, path string, doc *xmltree.Document) {
	t.Helper()
	if err := os.WriteFile(path, []byte(xmltree.XMLString(doc.Root)), 0o644); err != nil {
		t.Fatal(err)
	}
}

// fileServer builds a server with one file-backed dataset named "movies".
func fileServer(t *testing.T, path string) *server {
	t.Helper()
	s := testServer(t)
	c, err := extract.LoadFile(path, s.loadOptions("movies")...)
	if err != nil {
		t.Fatal(err)
	}
	s.add("movies", c, path)
	return s
}

func TestHandleReload(t *testing.T) {
	path := filepath.Join(t.TempDir(), "movies.xml")
	writeDataset(t, path, gen.Movies(gen.MoviesConfig{Movies: 5, Seed: 1}))
	s := fileServer(t, path)
	ds := s.datasets["movies"]

	// Warm the cache against the old corpus, remember the old answer.
	oldHits, err := ds.Corpus.Query("movie", 6)
	if err != nil {
		t.Fatal(err)
	}
	before := ds.Corpus.Stats().Nodes

	// The file grows; POST /reload must swap the new corpus in.
	writeDataset(t, path, gen.Movies(gen.MoviesConfig{Movies: 12, Seed: 2}))
	rr := httptest.NewRecorder()
	s.handleReload(rr, httptest.NewRequest("POST", "/reload?dataset=movies", nil))
	if rr.Code != http.StatusOK {
		t.Fatalf("status = %d: %s", rr.Code, rr.Body.String())
	}
	var out struct {
		Dataset string `json:"dataset"`
		Nodes   int    `json:"nodes"`
	}
	if err := json.Unmarshal(rr.Body.Bytes(), &out); err != nil {
		t.Fatalf("reload response not JSON: %v\n%s", err, rr.Body.String())
	}
	if out.Dataset != "movies" || out.Nodes == before {
		t.Fatalf("reload response = %+v, want new node count != %d", out, before)
	}
	if got := ds.Corpus.Stats().Nodes; got != out.Nodes {
		t.Fatalf("corpus nodes = %d, reload reported %d", got, out.Nodes)
	}

	// The cache was invalidated with the swap: the same query now answers
	// from the new corpus, not the entry cached against the old one.
	newHits, err := ds.Corpus.Query("movie", 6)
	if err != nil {
		t.Fatal(err)
	}
	if len(newHits) == len(oldHits) {
		t.Fatalf("reload kept serving the old corpus: %d hits before and after", len(oldHits))
	}
}

func TestHandleReloadErrors(t *testing.T) {
	path := filepath.Join(t.TempDir(), "movies.xml")
	writeDataset(t, path, gen.Movies(gen.MoviesConfig{Movies: 4, Seed: 3}))
	s := fileServer(t, path)
	cases := []struct {
		method, url string
		code        int
	}{
		{"GET", "/reload?dataset=movies", http.StatusMethodNotAllowed},
		{"POST", "/reload?dataset=unknown", http.StatusNotFound},
		{"POST", "/reload?dataset=stores+%28Figure+5%29", http.StatusConflict}, // built-in: not file-backed
	}
	for _, c := range cases {
		rr := httptest.NewRecorder()
		s.handleReload(rr, httptest.NewRequest(c.method, c.url, nil))
		if rr.Code != c.code {
			t.Errorf("%s %s: status = %d, want %d", c.method, c.url, rr.Code, c.code)
		}
	}

	// A reload that fails to parse must leave the old corpus serving.
	before := s.datasets["movies"].Corpus.Stats().Nodes
	if err := os.WriteFile(path, []byte("<broken"), 0o644); err != nil {
		t.Fatal(err)
	}
	rr := httptest.NewRecorder()
	s.handleReload(rr, httptest.NewRequest("POST", "/reload?dataset=movies", nil))
	if rr.Code != http.StatusInternalServerError {
		t.Fatalf("broken file reload: status = %d", rr.Code)
	}
	if got := s.datasets["movies"].Corpus.Stats().Nodes; got != before {
		t.Fatalf("failed reload changed the corpus: %d -> %d nodes", before, got)
	}
	if _, err := s.datasets["movies"].Corpus.Query("movie", 6); err != nil {
		t.Fatalf("old corpus stopped serving after failed reload: %v", err)
	}
}

// TestReloadDuringQueries drives concurrent searches while the dataset
// reloads repeatedly — the online-swap path under the race detector (CI
// runs every test with -race). Every response must be complete and
// error-free, whichever corpus generation served it.
func TestReloadDuringQueries(t *testing.T) {
	path := filepath.Join(t.TempDir(), "movies.xml")
	writeDataset(t, path, gen.Movies(gen.MoviesConfig{Movies: 6, Seed: 5}))
	s := fileServer(t, path)
	ds := s.datasets["movies"]

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				hits, err := ds.Corpus.Query("movie title", 8)
				if err != nil {
					t.Error(err)
					return
				}
				for _, h := range hits {
					if h.Result == nil || h.Snippet == nil || h.Snippet.Inline() == "" {
						t.Error("incomplete hit during reload")
						return
					}
				}
			}
		}()
	}
	for i := 0; i < 5; i++ {
		writeDataset(t, path, gen.Movies(gen.MoviesConfig{Movies: 5 + i, Seed: int64(i)}))
		rr := httptest.NewRecorder()
		s.handleReload(rr, httptest.NewRequest("POST", "/reload?dataset=movies", nil))
		if rr.Code != http.StatusOK {
			t.Errorf("reload %d: status = %d: %s", i, rr.Code, rr.Body.String())
		}
	}
	close(stop)
	wg.Wait()
}

// TestWatchTickReloadsChangedFiles drives one watcher tick directly: an
// unchanged file must not reload, a rewritten (newer-mtime) file must.
func TestWatchTickReloadsChangedFiles(t *testing.T) {
	path := filepath.Join(t.TempDir(), "movies.xml")
	writeDataset(t, path, gen.Movies(gen.MoviesConfig{Movies: 4, Seed: 9}))
	s := fileServer(t, path)
	ds := s.datasets["movies"]
	before := ds.Corpus.Stats().Nodes

	s.checkFiles() // unchanged mtime: nothing happens
	if got := ds.Corpus.Stats().Nodes; got != before {
		t.Fatalf("tick without a file change reloaded: %d -> %d nodes", before, got)
	}

	writeDataset(t, path, gen.Movies(gen.MoviesConfig{Movies: 9, Seed: 10}))
	bumpMtime(t, path)
	s.checkFiles()
	if got := ds.Corpus.Stats().Nodes; got == before {
		t.Fatalf("tick after a file change did not reload (%d nodes)", got)
	}

	// A second tick with no further change must not reload again.
	after := ds.Corpus.Stats().Nodes
	s.checkFiles()
	if got := ds.Corpus.Stats().Nodes; got != after {
		t.Fatalf("second tick reloaded again: %d -> %d nodes", after, got)
	}
}

// bumpMtime pushes the file's mtime clearly past the recorded one, so the
// test does not depend on filesystem timestamp granularity.
func bumpMtime(t *testing.T, path string) {
	t.Helper()
	fi, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	when := fi.ModTime().Add(2 * time.Second)
	if err := os.Chtimes(path, when, when); err != nil {
		t.Fatal(err)
	}
}

// TestWatchTickMissingFile is the delete-then-recreate regression: a
// dataset whose source file disappears is logged once and skipped —
// not retried (and logged) every tick — and reloads as soon as the file
// returns, even if the recreated file carries the old mtime and size.
func TestWatchTickMissingFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "movies.xml")
	doc := gen.Movies(gen.MoviesConfig{Movies: 5, Seed: 21})
	writeDataset(t, path, doc)
	origFi, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	s := fileServer(t, path)
	ds := s.datasets["movies"]
	before := ds.Corpus.Stats().Nodes

	var logs bytes.Buffer
	log.SetOutput(&logs)
	defer log.SetOutput(os.Stderr)

	if err := os.Remove(path); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		s.checkFiles()
	}
	if got := ds.Corpus.Stats().Nodes; got != before {
		t.Fatalf("missing file changed the corpus: %d -> %d nodes", before, got)
	}
	if n := strings.Count(logs.String(), "will reload when the file returns"); n != 1 {
		t.Fatalf("missing file logged %d times over 3 ticks, want exactly 1:\n%s", n, logs.String())
	}

	// The file returns — with identical content, mtime and size, the
	// hardest case: the recovery itself must force the reload.
	writeDataset(t, path, gen.Movies(gen.MoviesConfig{Movies: 5, Seed: 21}))
	if err := os.Chtimes(path, origFi.ModTime(), origFi.ModTime()); err != nil {
		t.Fatal(err)
	}
	s.checkFiles()
	ds.obs.Lock()
	reloads, missing := ds.reloads, ds.missing
	ds.obs.Unlock()
	if reloads != 1 || missing {
		t.Fatalf("recreated file did not reload: reloads=%d missing=%v", reloads, missing)
	}
	if _, err := ds.Corpus.Query("movie", 6); err != nil {
		t.Fatal(err)
	}

	// And the tick after recovery is quiet again.
	s.checkFiles()
	ds.obs.Lock()
	reloads = ds.reloads
	ds.obs.Unlock()
	if reloads != 1 {
		t.Fatalf("tick after recovery reloaded again (%d reloads)", reloads)
	}
}

// TestReloadLogCountsEntities: a file reload's log line says what it read —
// an edit of one movie parses that movie and copies the others of its
// shard out of the generation it replaces.
func TestReloadLogCountsEntities(t *testing.T) {
	path := filepath.Join(t.TempDir(), "movies.xml")
	doc := gen.Movies(gen.MoviesConfig{Movies: 5, Seed: 41})
	writeDataset(t, path, doc)
	s := fileServer(t, path)
	doc.Root.Children[2].Children[0].Children[0].Value = "Renamed"
	writeDataset(t, path, doc)

	var logs bytes.Buffer
	log.SetOutput(&logs)
	defer log.SetOutput(os.Stderr)
	if err := s.reload(s.datasets["movies"]); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(logs.String(), "1/1 shards rebuilt, 1 entities parsed, 4 copied") {
		t.Fatalf("reload log does not count 1 entity parsed and 4 copied: %q", logs.String())
	}
}

// TestHandleStatsReloadFields: /stats reports the refresh view — source
// kind, reload generation, last-reload time and mode.
func TestHandleStatsReloadFields(t *testing.T) {
	path := filepath.Join(t.TempDir(), "movies.xml")
	writeDataset(t, path, gen.Movies(gen.MoviesConfig{Movies: 5, Seed: 31}))
	s := fileServer(t, path)

	stats := func() map[string]datasetStats {
		rr := httptest.NewRecorder()
		s.handleStats(rr, httptest.NewRequest("GET", "/stats", nil))
		var out map[string]datasetStats
		if err := json.Unmarshal(rr.Body.Bytes(), &out); err != nil {
			t.Fatalf("stats not JSON: %v\n%s", err, rr.Body.String())
		}
		return out
	}

	row := stats()["movies"]
	if row.Source != "xml" || row.Reloads != 0 || row.LastReload != "" {
		t.Fatalf("boot-time stats row = %+v", row)
	}
	if builtin := stats()["stores (Figure 5)"]; builtin.Source != "" {
		t.Fatalf("built-in dataset claims a source: %+v", builtin)
	}

	writeDataset(t, path, gen.Movies(gen.MoviesConfig{Movies: 8, Seed: 32}))
	rr := httptest.NewRecorder()
	s.handleReload(rr, httptest.NewRequest("POST", "/reload?dataset=movies", nil))
	if rr.Code != http.StatusOK {
		t.Fatalf("reload: %d: %s", rr.Code, rr.Body.String())
	}

	row = stats()["movies"]
	if row.Reloads != 1 || row.LastReloadMode != "full" {
		t.Fatalf("stats row after full reload = %+v", row)
	}
	if _, err := time.Parse(time.RFC3339, row.LastReload); err != nil {
		t.Fatalf("last_reload %q not RFC 3339: %v", row.LastReload, err)
	}
}

// snapshotDoc builds the stores corpus the snapshot tests serve: four
// top-level retailers so a 3-shard corpus has a shard to spare.
func snapshotDoc(mutate bool) *xmltree.Document {
	doc := gen.Stores(gen.StoresConfig{Retailers: 4, StoresPerRetailer: 3, ClothesPerStore: 3, Seed: 71})
	if mutate {
		entity := doc.Root.Children[1]
		done := false
		entity.Walk(func(n *xmltree.Node) bool {
			if done || !n.IsText() {
				return true
			}
			n.Value = "zzzrestocked"
			done = true
			return false
		})
	}
	return doc
}

// TestSnapshotDirectoryWithoutSuffixFingerprintsManifest: router mode
// registers its -snapshot directory, which need not be named *.xtsnap, as a
// snapshot dataset. Its generation must be fingerprinted by the manifest from
// the start, so a watcher tick over an untouched snapshot reloads nothing.
func TestSnapshotDirectoryWithoutSuffixFingerprintsManifest(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "snapshot")
	if err := extract.FromDocumentSharded(snapshotDoc(false), nil, 3).SaveSnapshot(dir); err != nil {
		t.Fatal(err)
	}
	s := testServer(t)
	c, err := extract.LoadSnapshot(dir, s.loadOptions("remote")...)
	if err != nil {
		t.Fatal(err)
	}
	s.addSnapshot("remote", c, dir)
	ds := s.datasets["remote"]
	if !ds.Snapshot {
		t.Fatal("router-mode dataset not registered as a snapshot")
	}
	s.checkFiles()
	s.checkFiles()
	ds.obs.Lock()
	reloads := ds.reloads
	ds.obs.Unlock()
	if reloads != 0 {
		t.Fatalf("watcher reloaded an unchanged snapshot %d times", reloads)
	}
}

// TestSnapshotDataset serves a .xtsnap dataset end to end: load, query,
// then an in-place snapshot refresh reloaded through the delta path.
func TestSnapshotDataset(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "stores.xtsnap")
	src := extract.FromDocumentSharded(snapshotDoc(false), nil, 3)
	if err := src.SaveSnapshot(dir); err != nil {
		t.Fatal(err)
	}

	s := testServer(t)
	c, err := extract.LoadSnapshot(dir, s.loadOptions("stores-snap")...)
	if err != nil {
		t.Fatal(err)
	}
	s.add("stores-snap", c, dir)
	ds := s.datasets["stores-snap"]
	if !ds.Snapshot {
		t.Fatal("snapshot dataset not recognized")
	}
	if c.Shards() != 3 {
		t.Fatalf("snapshot served %d shards, want 3", c.Shards())
	}
	hits, err := c.Query("store texas", 8)
	if err != nil {
		t.Fatal(err)
	}
	if len(hits) == 0 {
		t.Fatal("snapshot dataset answered nothing")
	}

	// Refresh the snapshot in place (one entity changed: the incremental
	// writer rewrites one shard image) and reload through the handler.
	src2 := extract.FromDocumentSharded(snapshotDoc(true), nil, 3)
	if err := src2.SaveSnapshot(dir); err != nil {
		t.Fatal(err)
	}
	rr := httptest.NewRecorder()
	s.handleReload(rr, httptest.NewRequest("POST", "/reload?dataset=stores-snap", nil))
	if rr.Code != http.StatusOK {
		t.Fatalf("snapshot reload: %d: %s", rr.Code, rr.Body.String())
	}
	var out struct {
		Mode    string `json:"mode"`
		Reloads int    `json:"reloads"`
	}
	if err := json.Unmarshal(rr.Body.Bytes(), &out); err != nil {
		t.Fatal(err)
	}
	if out.Mode != "delta" || out.Reloads != 1 {
		t.Fatalf("snapshot reload response = %+v, want delta/1", out)
	}
	results, err := c.Search("zzzrestocked")
	if err != nil {
		t.Fatal(err)
	}
	if len(results) == 0 {
		t.Fatal("reloaded snapshot does not serve the new content")
	}

	// The watcher notices a new snapshot generation through the manifest.
	writeDatasetSnapshot := func() {
		src3 := extract.FromDocumentSharded(snapshotDoc(false), nil, 3)
		if err := src3.SaveSnapshot(dir); err != nil {
			t.Fatal(err)
		}
	}
	writeDatasetSnapshot()
	bumpMtime(t, ds.watchPath())
	s.checkFiles()
	ds.obs.Lock()
	reloads := ds.reloads
	ds.obs.Unlock()
	if reloads != 2 {
		t.Fatalf("watcher did not reload the refreshed snapshot (reloads=%d)", reloads)
	}
}
