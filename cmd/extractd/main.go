// Command extractd serves the eXtract web demo (the paper's Figure 5): pick
// a dataset, type a keyword query, set the snippet size bound, and browse
// result snippets with links to the full results. A text-search-engine
// snippet (best keyword window over the flattened text, the paper's
// "Google Desktop" comparison) is shown side by side.
//
// Usage:
//
//	extractd                                  # built-in demo datasets
//	extractd -addr :8080 -data name=file.xml  # add a dataset from disk
//	extractd -data name=dir.xtsnap            # serve a snapshot directory:
//	                                          # mmap'd packed images, no
//	                                          # XML parse or re-analysis
//	extractd -shards 8 -data name=big.xml     # serve sharded corpora:
//	                                          # per-shard packed indexes,
//	                                          # parallel query fan-out
//	extractd -shards 8 -workers 4 -cachemb 128 -data name=big.xml
//	                                          # serving-layer tuning: a
//	                                          # 4-worker evaluation pool and
//	                                          # a 128 MiB query cache
//	extractd -watch 5s -data name=big.xml     # poll big.xml's mtime and
//	                                          # hot-reload it when it changes
//	extractd -query-timeout 2s -max-inflight 64
//	                                          # failure policy: per-query
//	                                          # deadline and a bound on
//	                                          # concurrently admitted queries
//	                                          # (excess answered 503)
//	extractd -slow-query 250ms -pprof         # observability: log queries
//	                                          # ≥250ms as JSON lines and
//	                                          # serve /debug/pprof/
//
// Every dataset — sharded or not — is served through the query-serving
// layer (internal/serve): evaluation runs on a fixed worker pool (-workers,
// default GOMAXPROCS) and repeated queries are answered from a sharded LRU
// cache (-cachemb, default 64 MiB; 0 disables). GET /stats returns the
// per-dataset cache and refresh counters as JSON:
//
//	curl localhost:8080/stats
//	{"movies":{"shards":8,"cache":{"hits":42,...},"reloads":3,
//	           "last_reload_mode":"delta",...}}
//
// GET /metrics is the full telemetry surface in Prometheus text format —
// per-stage query latency summaries (p50/p90/p99/p999), cache and failure
// counters (shed, panics, reload circuit breaker), reload timings — one
// series set per dataset. -slow-query logs every query at least that slow
// as one sanitized JSON line (tokenized keywords and stage timings, never
// raw query text), and -pprof mounts net/http/pprof under /debug/pprof/.
// OBSERVABILITY.md at the repo root documents every metric and the triage
// runbook.
//
// File-backed datasets (-data) reload online and incrementally: an XML
// source is re-parsed, diffed per shard, and only changed shards are
// re-analyzed (unchanged ones are adopted in place); a snapshot source is
// diffed through its manifest and only changed packed images are decoded.
// Either way the swap is atomic — in-flight queries finish against the old
// corpus and the query cache is invalidated in the same step. Either ask
// for it (POST /reload) or let the mtime watcher (-watch) do it when the
// source changes (a snapshot's manifest file carries its generation):
//
//	curl -X POST 'localhost:8080/reload?dataset=movies'
//	{"dataset":"movies","shards":8,"nodes":183220,"mode":"delta","reloads":1}
//
// The process has a full lifecycle: /healthz reports liveness, /readyz
// reports readiness (503 while the boot-time loads run, while draining,
// or while a watched dataset's reload loop is tripped open after repeated
// failures), and SIGINT/SIGTERM drains in-flight requests (bounded by
// -drain) before releasing the worker pools. Failed watcher reloads retry
// with exponential backoff; the last good corpus serves throughout. API
// errors are JSON: {"error":"..."}.
//
// See README.md in this directory for the full flag and endpoint reference.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"html/template"
	"io"
	"log"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"extract"
	"extract/internal/baseline"
	"extract/internal/gen"
	"extract/internal/ingest"
	"extract/internal/search"
	"extract/xmltree"
)

const (
	// breakerThreshold is the consecutive-reload-failure count past which
	// a dataset is reported degraded by /readyz: the corpus keeps serving,
	// but its source has been unloadable long enough that an operator (or
	// an orchestrator watching readiness) should know.
	breakerThreshold = 5

	// maxBackoffShift caps the exponential reload backoff at
	// watchInterval << maxBackoffShift between attempts.
	maxBackoffShift = 6
)

type dataset struct {
	Name   string
	Corpus *extract.Corpus

	// Path is the source the dataset was loaded from — an XML file, or a
	// snapshot directory when Snapshot is set; "" for the built-in demo
	// corpora, which cannot be reloaded.
	Path string

	// Snapshot marks a dataset served from a .xtsnap snapshot directory:
	// it reloads through the packed images (ReloadSnapshot), never by
	// re-parsing XML.
	Snapshot bool

	// mu serializes reloads of this dataset (manual and watcher-driven);
	// queries do not take it — Corpus.Reload swaps atomically underneath
	// them. mtime/size fingerprint the file generation last loaded (for a
	// snapshot, its manifest file); the watcher reloads on any change,
	// not just a newer mtime, so rewrites within one timestamp-
	// granularity tick or mtime-preserving copies are still picked up
	// when the size moves.
	mu    sync.Mutex
	mtime time.Time
	size  int64

	// obs guards the refresh-observability fields below. It is separate
	// from mu — which a reload holds for its whole re-parse — so /stats
	// never blocks behind a reload in progress.
	obs sync.Mutex

	// Refresh bookkeeping for /stats: how many reloads this dataset has
	// served (its generation), when the last one happened, and whether it
	// went the delta or the full path.
	reloads    int
	lastReload time.Time
	lastMode   string

	// missing marks a dataset whose source vanished: the watcher logs the
	// disappearance once and skips the dataset until the source returns,
	// instead of retrying (and logging) every tick.
	missing bool

	// Reload-failure tracking (under obs). Consecutive failures push the
	// watcher's next attempt out exponentially (a corrupt source should
	// not be re-parsed at full tick rate forever) and, past
	// breakerThreshold, mark the dataset degraded in /readyz. A
	// successful reload — watcher-driven or POST /reload — resets both.
	failures    int
	nextAttempt time.Time
}

// watchPath returns the file whose mtime fingerprints the dataset's
// source generation: the XML file itself, or a snapshot's manifest (which
// is written last, atomically, so a changed mtime means a complete new
// snapshot).
func (ds *dataset) watchPath() string {
	if ds.Snapshot {
		return filepath.Join(ds.Path, ingest.ManifestName)
	}
	return ds.Path
}

type server struct {
	datasets map[string]*dataset
	names    []string
	tmpl     *template.Template

	// Load parameters, reapplied whenever a file-backed dataset reloads.
	shards      int
	workers     int
	cacheBytes  int64
	timeout     time.Duration
	maxInFlight int

	// watchInterval is the -watch poll period — also the base of the
	// per-dataset exponential reload backoff (0 disables both).
	watchInterval time.Duration

	// slowQuery is the -slow-query threshold: queries at least this slow
	// are logged as sanitized JSON lines to slowW (0 disables). slowW
	// defaults to stderr; tests inject a buffer.
	slowQuery time.Duration
	slowW     io.Writer
	slowMu    sync.Mutex

	// pprofEnabled mounts net/http/pprof under /debug/pprof/ (-pprof).
	// Opt-in: profiles expose internals, so the default surface is closed.
	pprofEnabled bool

	// ready flips once the boot-time dataset loads finish; the listener
	// comes up first, so /readyz answers 503 while loading. draining
	// flips when shutdown starts, telling load balancers to stop routing
	// while in-flight requests finish.
	ready    atomic.Bool
	draining atomic.Bool

	// now is time.Now unless a test injects a clock for backoff timing.
	now func() time.Time
}

func (s *server) timeNow() time.Time {
	if s.now != nil {
		return s.now()
	}
	return time.Now()
}

func main() {
	var (
		addr         = flag.String("addr", ":8080", "listen address")
		shards       = flag.Int("shards", 1, "partition each dataset into up to N index shards")
		workers      = flag.Int("workers", 0, "serving-layer worker pool size (0 = GOMAXPROCS)")
		cacheMB      = flag.Int64("cachemb", -1, "query-cache budget per dataset in MiB (0 disables, -1 = default)")
		watch        = flag.Duration("watch", 0, "poll file-backed datasets at this interval and hot-reload on mtime change (0 disables)")
		queryTimeout = flag.Duration("query-timeout", 0, "per-query evaluation deadline (0 disables)")
		maxInFlight  = flag.Int("max-inflight", 0, "bound on concurrently admitted queries per dataset; excess answered 503 (0 = unlimited)")
		drain        = flag.Duration("drain", 10*time.Second, "graceful-shutdown deadline for draining in-flight requests")
		slowQuery    = flag.Duration("slow-query", 0, "log queries at least this slow as JSON lines on stderr (0 disables)")
		pprofFlag    = flag.Bool("pprof", false, "serve net/http/pprof profiles under /debug/pprof/")
		shardServer  = flag.Bool("shard-server", false, "run as a shard server for the distributed tier instead of the HTTP demo (requires -snapshot)")
		metricsAddr  = flag.String("metrics-addr", "", "with -shard-server, also serve GET /metrics and /healthz over HTTP on this address (empty disables)")
		snapshotDir  = flag.String("snapshot", "", "snapshot directory (any shard count) for -shard-server and -router modes")
		shardGroup   = flag.Int("shard-group", 0, "this shard server's replica group index (0-based)")
		shardGroups  = flag.Int("shard-groups", 1, "total replica groups in the tier; placement is computed from the snapshot manifest")
		routerFlag   = flag.String("router", "", "serve the -snapshot dataset through a remote shard tier: replica groups separated by ';', replicas by ',' (host:port,host:port;host:port)")
	)
	var dataFlags multiFlag
	flag.Var(&dataFlags, "data", "dataset as name=file.xml (repeatable)")
	flag.Parse()

	if *shardServer {
		runShardServer(*addr, *metricsAddr, *snapshotDir, *shardGroup, *shardGroups, *watch)
		return
	}

	cacheBytes := *cacheMB
	if cacheBytes > 0 {
		cacheBytes <<= 20
	}
	s := &server{
		datasets:      make(map[string]*dataset),
		shards:        *shards,
		workers:       *workers,
		cacheBytes:    cacheBytes,
		timeout:       *queryTimeout,
		maxInFlight:   *maxInFlight,
		watchInterval: *watch,
		slowQuery:     *slowQuery,
		slowW:         os.Stderr,
		pprofEnabled:  *pprofFlag,
	}

	// Listen before loading anything: readiness is observable from the
	// first moment — /healthz answers 200 (the process is up) and /readyz
	// answers 503 until the boot-time loads finish. Handlers that touch
	// datasets reject with the same 503 until then, so the early listener
	// never races the loads.
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		log.Fatalf("extractd: listen %s: %v", *addr, err)
	}
	httpSrv := &http.Server{Handler: s.routes()}
	go func() {
		if err := httpSrv.Serve(ln); err != nil && !errors.Is(err, http.ErrServerClosed) {
			log.Fatalf("extractd: serve: %v", err)
		}
	}()

	// Built-in demo datasets: the paper's two scenarios plus movies.
	builtin := func(name string, doc *xmltree.Document) {
		s.add(name, extract.FromDocumentSharded(doc, nil, *shards, s.loadOptions(name)...), "")
	}
	builtin("stores (Figure 5)", gen.Figure5Corpus())
	builtin("retailers (Figure 1)", gen.Figure1Corpus())
	builtin("movies", gen.Movies(gen.MoviesConfig{Movies: 30, Seed: 7}))

	for _, df := range dataFlags {
		name, path, ok := strings.Cut(df, "=")
		if !ok {
			log.Fatalf("extractd: bad -data %q, want name=file.xml or name=dir.xtsnap", df)
		}
		var c *extract.Corpus
		var err error
		if isSnapshotPath(path) {
			// Snapshot dataset: serve straight off the mmap'd packed
			// images — no XML parse, no re-analysis; the shard shape comes
			// from the snapshot (-shards does not apply).
			c, err = extract.LoadSnapshot(path, s.loadOptions(name)...)
		} else {
			c, err = extract.LoadFile(path, s.loadOptions(name)...)
		}
		if err != nil {
			log.Fatalf("extractd: load %s: %v", path, err)
		}
		if n := c.Shards(); n > 1 {
			log.Printf("extractd: %s: %d shards", name, n)
		}
		s.add(name, c, path)
	}
	if *routerFlag != "" {
		// Router mode: the dataset is served by a remote shard tier —
		// queries fan out over the wire and answers come back
		// byte-identical to a local corpus (see internal/remote). Only the
		// snapshot's manifest and analysis image are read locally.
		if *snapshotDir == "" {
			log.Fatal("extractd: -router requires -snapshot <dir>")
		}
		groups := parseReplicaGroups(*routerFlag)
		if len(groups) == 0 {
			log.Fatalf("extractd: -router %q lists no replica addresses", *routerFlag)
		}
		c, err := extract.Connect(*snapshotDir, groups, s.loadOptions("remote")...)
		if err != nil {
			log.Fatalf("extractd: connect to shard tier: %v", err)
		}
		log.Printf("extractd: remote dataset: %d shards across %d replica groups", c.Shards(), len(groups))
		s.add("remote", c, *snapshotDir)
		// Reloads go through the manifest + router re-placement, not XML.
		s.datasets["remote"].Snapshot = true
	}
	sort.Strings(s.names)
	s.tmpl = template.Must(template.New("page").Parse(pageHTML))

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if *watch > 0 {
		go s.watchFiles(ctx, *watch)
	}
	s.ready.Store(true)
	log.Printf("extractd: demo on http://%s/ with datasets: %s",
		ln.Addr(), strings.Join(s.names, "; "))

	// Graceful lifecycle: on SIGINT/SIGTERM, flip /readyz to draining,
	// let in-flight requests finish (bounded by -drain), then release the
	// worker pools. A second signal kills the process immediately (stop()
	// above restores default signal handling).
	<-ctx.Done()
	stop()
	log.Printf("extractd: shutdown signal received; draining for up to %v", *drain)
	s.draining.Store(true)
	drainCtx, cancel := context.WithTimeout(context.Background(), *drain)
	defer cancel()
	if err := httpSrv.Shutdown(drainCtx); err != nil {
		log.Printf("extractd: drain incomplete: %v", err)
	}
	for _, name := range s.names {
		s.datasets[name].Corpus.Close()
	}
	log.Printf("extractd: shutdown complete")
}

// routes wires every endpoint onto a fresh mux (package-global state would
// leak between tests).
func (s *server) routes() *http.ServeMux {
	mux := http.NewServeMux()
	mux.HandleFunc("/", s.handleSearch)
	mux.HandleFunc("/view", s.handleView)
	mux.HandleFunc("/stats", s.handleStats)
	mux.HandleFunc("/metrics", s.handleMetrics)
	mux.HandleFunc("/reload", s.handleReload)
	mux.HandleFunc("/healthz", s.handleHealthz)
	mux.HandleFunc("/readyz", s.handleReadyz)
	mux.HandleFunc("/debug/traces", s.handleTraces)
	if s.pprofEnabled {
		// Mounted explicitly rather than via the package's init-time
		// registration on http.DefaultServeMux, which this server never
		// uses — -pprof stays a real opt-in.
		mux.HandleFunc("/debug/pprof/", pprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	}
	return mux
}

type multiFlag []string

func (m *multiFlag) String() string     { return strings.Join(*m, ",") }
func (m *multiFlag) Set(v string) error { *m = append(*m, v); return nil }

// isSnapshotPath reports whether a -data path names a snapshot directory
// rather than an XML file.
func isSnapshotPath(path string) bool {
	return strings.HasSuffix(path, ".xtsnap")
}

// loadOptions returns the extract load options the named dataset is
// (re)loaded with, so a reload reproduces the boot-time configuration. The
// name is what the dataset's slow-query records are logged under.
func (s *server) loadOptions(name string) []extract.Option {
	opts := []extract.Option{extract.WithShards(s.shards), extract.WithWorkers(s.workers)}
	if s.cacheBytes >= 0 {
		opts = append(opts, extract.WithQueryCache(s.cacheBytes))
	}
	if s.timeout > 0 {
		opts = append(opts, extract.WithQueryTimeout(s.timeout))
	}
	if s.maxInFlight > 0 {
		opts = append(opts, extract.WithMaxInFlight(s.maxInFlight))
	}
	if s.slowQuery > 0 {
		opts = append(opts, extract.WithSlowQueryLog(s.slowQuery, func(q extract.SlowQuery) { s.logSlowQuery(name, q) }))
	}
	return opts
}

// writeError answers with the JSON error envelope every non-HTML endpoint
// uses: {"error": "..."} plus the status code.
func writeError(w http.ResponseWriter, code int, msg string) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	if err := json.NewEncoder(w).Encode(map[string]string{"error": msg}); err != nil {
		log.Printf("extractd: write error response: %v", err)
	}
}

// queryFailure is the one mapping of a failed query to the status code and
// the sanitized message / and /view answer with: overload (with Retry-After,
// so well-behaved clients back off), deadline and cancel keep their own
// codes, and a query with no keywords is a 404. Anything else — a recovered
// evaluation panic, a routed failure naming replica addresses, either of
// which may carry document text — is a generic 500 whose detail stays in
// the server log, never in the response.
func queryFailure(w http.ResponseWriter, err error) (int, string) {
	switch {
	case errors.Is(err, extract.ErrOverloaded):
		w.Header().Set("Retry-After", "1")
		return http.StatusServiceUnavailable, "server overloaded; retry later"
	case errors.Is(err, context.DeadlineExceeded):
		return http.StatusGatewayTimeout, "query deadline exceeded"
	case errors.Is(err, context.Canceled):
		return http.StatusServiceUnavailable, "request canceled"
	case errors.Is(err, search.ErrEmptyQuery):
		return http.StatusNotFound, "query has no keywords"
	default:
		log.Printf("extractd: query failed: %v", err)
		return http.StatusInternalServerError, "query failed"
	}
}

// notReady gates every dataset-touching handler while boot-time loads run:
// the listener is up (so /healthz and /readyz answer) but the datasets map
// is still being populated. The atomic ready flag orders those writes
// before any handler read.
func (s *server) notReady(w http.ResponseWriter) bool {
	if s.ready.Load() {
		return false
	}
	writeError(w, http.StatusServiceUnavailable, "server is loading datasets")
	return true
}

// handleHealthz reports liveness: the process is up and serving HTTP.
// Always 200 — loading, degraded and draining states belong to /readyz.
func (s *server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	fmt.Fprintln(w, `{"status":"ok"}`)
}

// handleReadyz reports whether the server should receive traffic: 503
// while the boot-time loads run, 503 once shutdown starts draining, and
// 503 naming the datasets whose reload loop has tripped the circuit
// breaker (the corpus still serves its last good generation, but an
// orchestrator should know the source has been unloadable for a while).
func (s *server) handleReadyz(w http.ResponseWriter, _ *http.Request) {
	switch {
	case s.draining.Load():
		writeError(w, http.StatusServiceUnavailable, "draining")
	case !s.ready.Load():
		writeError(w, http.StatusServiceUnavailable, "loading datasets")
	default:
		if bad := s.degradedDatasets(); len(bad) > 0 {
			writeError(w, http.StatusServiceUnavailable,
				"degraded: repeated reload failures: "+strings.Join(bad, ", "))
			return
		}
		w.Header().Set("Content-Type", "application/json")
		fmt.Fprintln(w, `{"status":"ok"}`)
	}
}

// degradedDatasets lists datasets whose consecutive reload failures have
// reached the circuit-breaker threshold.
func (s *server) degradedDatasets() []string {
	var bad []string
	for _, name := range s.names {
		ds := s.datasets[name]
		ds.obs.Lock()
		tripped := ds.failures >= breakerThreshold
		ds.obs.Unlock()
		if tripped {
			bad = append(bad, name)
		}
	}
	return bad
}

func (s *server) add(name string, c *extract.Corpus, path string) {
	ds := &dataset{Name: name, Corpus: c, Path: path, Snapshot: isSnapshotPath(path)}
	if path != "" {
		if fi, err := os.Stat(ds.watchPath()); err == nil {
			ds.mtime, ds.size = fi.ModTime(), fi.Size()
		}
	}
	// The watcher's failure-domain state exports next to the corpus's own
	// metrics, so one /metrics scrape carries the PR 6 breaker state too.
	c.RegisterGauge("extract_reload_consecutive_failures",
		"Consecutive reload failures; resets to 0 on a successful reload.",
		func() float64 {
			ds.obs.Lock()
			defer ds.obs.Unlock()
			return float64(ds.failures)
		}, nil)
	c.RegisterGauge("extract_reload_breaker_open",
		"1 while repeated reload failures keep the dataset degraded in /readyz, else 0.",
		func() float64 {
			ds.obs.Lock()
			defer ds.obs.Unlock()
			if ds.failures >= breakerThreshold {
				return 1
			}
			return 0
		}, nil)
	s.datasets[name] = ds
	s.names = append(s.names, name)
}

// slowQueryLine is one slow-query log record: a single JSON line, already
// sanitized — tokenized keywords, stage timings, and an error class, never
// raw query text, document values or error messages.
type slowQueryLine struct {
	TS       string             `json:"ts"` // RFC 3339, UTC
	Dataset  string             `json:"dataset"`
	TraceID  string             `json:"trace_id,omitempty"` // 16 hex digits; matches /debug/traces
	Keywords []string           `json:"keywords"`
	TotalMs  float64            `json:"total_ms"`
	StagesMs map[string]float64 `json:"stages_ms"`
	Cache    string             `json:"cache,omitempty"`
	Results  int                `json:"results"`
	Error    string             `json:"error,omitempty"`
	// Hops lists the remote call attempts a routed query made, in order;
	// absent for local datasets, cache hits and coalesced followers.
	Hops []hopLine `json:"hops,omitempty"`
}

// hopLine renders one remote call attempt in a slow-query record or a
// /debug/traces entry: replica identity, attempt number, wire round trip,
// the server-reported stage breakdown, and the failure class when the
// attempt failed.
type hopLine struct {
	Kind           string             `json:"kind"`
	Group          string             `json:"group"`
	Replica        string             `json:"replica"`
	Attempt        int                `json:"attempt"`
	WireMs         float64            `json:"wire_ms"`
	ServerStagesMs map[string]float64 `json:"server_stages_ms,omitempty"`
	Error          string             `json:"error,omitempty"`
}

// hopLines converts facade hops to their log/JSON form (nil in, nil out).
func hopLines(hops []extract.Hop) []hopLine {
	if len(hops) == 0 {
		return nil
	}
	out := make([]hopLine, len(hops))
	for i, h := range hops {
		out[i] = hopLine{
			Kind:    h.Kind,
			Group:   h.Group,
			Replica: h.Replica,
			Attempt: h.Attempt,
			WireMs:  roundMs(h.Wire),
			Error:   h.Err,
		}
		stages := map[string]time.Duration{
			"decode": h.ServerDecode, "eval": h.ServerEval, "encode": h.ServerEncode,
		}
		for name, d := range stages {
			if d > 0 {
				if out[i].ServerStagesMs == nil {
					out[i].ServerStagesMs = make(map[string]float64, len(stages))
				}
				out[i].ServerStagesMs[name] = roundMs(d)
			}
		}
	}
	return out
}

// traceIDString renders a trace ID the way every surface logs it: 16 hex
// digits, or "" for the zero (untraced) ID.
func traceIDString(id uint64) string {
	if id == 0 {
		return ""
	}
	return fmt.Sprintf("%016x", id)
}

// maxLoggedKeywords caps a slow-query line's keyword list: enough to
// identify the query shape, bounded so a pathological thousand-term query
// cannot flood the log.
const maxLoggedKeywords = 16

// logSlowQuery writes one slow-query JSON line. Lines are serialized under
// slowMu so concurrent slow queries never interleave mid-line.
func (s *server) logSlowQuery(dataset string, q extract.SlowQuery) {
	kws := q.Keywords
	if len(kws) > maxLoggedKeywords {
		kws = kws[:maxLoggedKeywords]
	}
	line := slowQueryLine{
		TS:       time.Now().UTC().Format(time.RFC3339Nano),
		Dataset:  dataset,
		TraceID:  traceIDString(q.TraceID),
		Keywords: kws,
		TotalMs:  roundMs(q.Duration),
		StagesMs: make(map[string]float64, len(q.Stages)),
		Cache:    q.Cache,
		Results:  q.Results,
		Error:    q.Err,
		Hops:     hopLines(q.Hops),
	}
	for st, d := range q.Stages {
		line.StagesMs[st] = roundMs(d)
	}
	b, err := json.Marshal(line)
	if err != nil {
		log.Printf("extractd: slow-query marshal: %v", err)
		return
	}
	s.slowMu.Lock()
	defer s.slowMu.Unlock()
	fmt.Fprintln(s.slowW, string(b))
}

// roundMs renders a duration as milliseconds with microsecond precision.
func roundMs(d time.Duration) float64 {
	return float64(d.Round(time.Microsecond)) / float64(time.Millisecond)
}

// handleMetrics serves every dataset's metrics as one merged Prometheus
// text exposition, each series labeled dataset=<name>: per-stage query
// latency summaries, cache and failure counters, reload timings, and the
// watcher's failure gauges.
func (s *server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	if s.notReady(w) {
		return
	}
	if r.Method != http.MethodGet {
		writeError(w, http.StatusMethodNotAllowed, "GET only")
		return
	}
	corpora := make(map[string]*extract.Corpus, len(s.datasets))
	for name, ds := range s.datasets {
		corpora[name] = ds.Corpus
	}
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	if err := extract.WriteMetrics(w, corpora); err != nil {
		log.Printf("extractd: metrics: %v", err)
	}
}

// traceEntry is one /debug/traces record: a retained query trace with the
// same hop rendering the slow-query log uses, so an operator can pivot
// between the two surfaces on trace_id. Traces carry no query text — the
// endpoint is safe to expose without leaking what users searched for.
type traceEntry struct {
	TraceID  string             `json:"trace_id"`
	TS       string             `json:"ts"` // RFC 3339, UTC
	TotalMs  float64            `json:"total_ms"`
	StagesMs map[string]float64 `json:"stages_ms"`
	Cache    string             `json:"cache,omitempty"`
	Results  int                `json:"results"`
	Error    string             `json:"error,omitempty"`
	Kept     string             `json:"kept"`
	Hops     []hopLine          `json:"hops,omitempty"`
}

// handleTraces serves every dataset's recent-trace ring as JSON: a steady
// sample of recent queries plus the slowest seen, newest first per
// dataset, with per-hop replica addresses and server-side stage timings on
// routed queries.
func (s *server) handleTraces(w http.ResponseWriter, r *http.Request) {
	if s.notReady(w) {
		return
	}
	if r.Method != http.MethodGet {
		writeError(w, http.StatusMethodNotAllowed, "GET only")
		return
	}
	out := make(map[string][]traceEntry, len(s.datasets))
	for name, ds := range s.datasets {
		traces := ds.Corpus.RecentTraces()
		entries := make([]traceEntry, len(traces))
		for i, qt := range traces {
			e := traceEntry{
				TraceID:  traceIDString(qt.TraceID),
				TS:       qt.Time.UTC().Format(time.RFC3339Nano),
				TotalMs:  roundMs(qt.Total),
				StagesMs: make(map[string]float64, len(qt.Stages)),
				Cache:    qt.Cache,
				Results:  qt.Results,
				Error:    qt.Err,
				Kept:     qt.Kept,
				Hops:     hopLines(qt.Hops),
			}
			for _, st := range qt.Stages {
				e.StagesMs[st.Name] = roundMs(st.Duration)
			}
			entries[i] = e
		}
		out[name] = entries
	}
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	if err := enc.Encode(out); err != nil {
		log.Printf("extractd: traces: %v", err)
	}
}

// reload refreshes a file-backed dataset through the delta path — re-parse
// plus per-shard diff for an XML source, a manifest diff plus packed-image
// decode for a snapshot — and swaps the new corpus in atomically.
// In-flight queries finish against the old corpus; the query cache is
// invalidated in the same step. Unchanged shards are adopted across the
// swap, so a small edit reloads in time proportional to what changed.
func (s *server) reload(ds *dataset) error {
	if ds.Path == "" {
		return fmt.Errorf("dataset %q is not file-backed", ds.Name)
	}
	ds.mu.Lock()
	defer ds.mu.Unlock()
	fi, err := os.Stat(ds.watchPath())
	if err != nil {
		return err
	}
	var stats extract.DeltaStats
	if ds.Snapshot {
		stats, err = ds.Corpus.ReloadSnapshot(ds.Path)
	} else {
		stats, err = ds.Corpus.ReloadDeltaFile(ds.Path, s.loadOptions(ds.Name)...)
	}
	if err != nil {
		s.noteReloadFailure(ds)
		return err
	}
	ds.mtime, ds.size = fi.ModTime(), fi.Size()
	ds.obs.Lock()
	ds.reloads++
	ds.lastReload = time.Now()
	ds.lastMode = stats.Mode()
	ds.missing = false
	ds.failures = 0
	ds.nextAttempt = time.Time{}
	ds.obs.Unlock()
	log.Printf("extractd: reloaded %s from %s (%s: %d/%d shards rebuilt, %d nodes)",
		ds.Name, ds.Path, stats.Mode(), stats.Rebuilt, stats.Shards, ds.Corpus.Stats().Nodes)
	return nil
}

// noteReloadFailure records one failed reload attempt: the watcher's next
// attempt backs off exponentially (base -watch interval, doubling per
// consecutive failure, capped), and at breakerThreshold the dataset is
// reported degraded by /readyz until a reload succeeds. Manual POST
// /reload is never gated — an operator retry is always allowed — but its
// failures count too.
func (s *server) noteReloadFailure(ds *dataset) {
	ds.obs.Lock()
	defer ds.obs.Unlock()
	ds.failures++
	if s.watchInterval > 0 {
		ds.nextAttempt = s.timeNow().Add(backoff(s.watchInterval, ds.failures))
	}
	if ds.failures == breakerThreshold {
		log.Printf("extractd: %s: %d consecutive reload failures — reporting degraded until a reload succeeds",
			ds.Name, ds.failures)
	}
}

// backoff is how long a watcher waits after its failures-th consecutive
// failed reload: the poll interval, doubling per failure, capped at
// interval << maxBackoffShift. The dataset watcher and the shard server's
// snapshot watcher both space retries by it.
func backoff(interval time.Duration, failures int) time.Duration {
	return interval << min(failures-1, maxBackoffShift)
}

// watchFiles polls every file-backed dataset's mtime and reloads the ones
// whose files changed — the hands-off variant of POST /reload. A reload
// failure (a half-written file, say) is logged and retried with
// exponential backoff; the old corpus keeps serving. A dataset whose
// source file disappears is logged once and then skipped until the file
// returns. The loop exits when ctx is canceled at shutdown.
func (s *server) watchFiles(ctx context.Context, interval time.Duration) {
	tick := time.NewTicker(interval)
	defer tick.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-tick.C:
			s.checkFiles()
		}
	}
}

// checkFiles is one watcher tick: reload every file-backed dataset whose
// source is newer than the generation being served.
func (s *server) checkFiles() {
	for _, name := range s.names {
		ds := s.datasets[name]
		if ds.Path == "" {
			continue
		}
		fi, err := os.Stat(ds.watchPath())
		if err != nil {
			// The source vanished (or turned unreadable): say so once,
			// keep the loaded corpus serving, and stop retrying until the
			// file comes back — a deploy replacing the file atomically
			// never lands here, so this is an operator mistake worth one
			// loud line, not one per tick.
			ds.obs.Lock()
			first := !ds.missing
			ds.missing = true
			ds.obs.Unlock()
			if first {
				log.Printf("extractd: watch %s: %v — still serving the loaded corpus; will reload when the file returns", ds.Path, err)
			}
			continue
		}
		ds.obs.Lock()
		missing := ds.missing
		wait := ds.nextAttempt
		ds.obs.Unlock()
		if !wait.IsZero() && s.timeNow().Before(wait) {
			// Backing off after failed reloads; the old corpus serves.
			continue
		}
		ds.mu.Lock()
		// A dataset recovering from a missing source always reloads: the
		// recreated file may carry the old mtime and size.
		changed := missing || !fi.ModTime().Equal(ds.mtime) || fi.Size() != ds.size
		ds.mu.Unlock()
		if !changed {
			continue
		}
		if err := s.reload(ds); err != nil {
			log.Printf("extractd: reload %s: %v", ds.Name, err)
		}
	}
}

type hitView struct {
	Index    int
	Key      string
	Edges    int
	Size     int
	Snippet  template.HTML // highlighted tree, pre-escaped by RenderHTML
	Text     string
	IList    string
	ViewURL  string
	Covered  int
	IListLen int
}

type pageData struct {
	Datasets    []string
	Dataset     string
	Query       string
	Bound       int
	Ran         bool
	Error       string
	Hits        []hitView
	Stats       string
	Suggestions []string
}

func (s *server) handleSearch(w http.ResponseWriter, r *http.Request) {
	if s.notReady(w) {
		return
	}
	data := pageData{
		Datasets: s.names,
		Dataset:  r.FormValue("dataset"),
		Query:    r.FormValue("q"),
		Bound:    6,
	}
	if b, err := strconv.Atoi(r.FormValue("bound")); err == nil && b >= 0 && b <= 200 {
		data.Bound = b
	}
	if data.Dataset == "" && len(s.names) > 0 {
		data.Dataset = s.names[len(s.names)-1] // "stores (Figure 5)" sorts last
	}
	ds := s.datasets[data.Dataset]
	if ds != nil {
		st := ds.Corpus.Stats()
		data.Stats = fmt.Sprintf("%d nodes, entities: %s",
			st.Nodes, strings.Join(st.Entities, ", "))
		// Populate the keyword datalist: completions of the last typed
		// token, or frequent entity vocabulary when the box is empty.
		last := ""
		if toks := extract.Tokenize(data.Query); len(toks) > 0 {
			last = toks[len(toks)-1]
		}
		if last != "" {
			data.Suggestions = ds.Corpus.Suggest(last, 12)
		} else {
			data.Suggestions = st.Entities
		}
	}
	if ds != nil && data.Query != "" {
		data.Ran = true
		// The request context flows into evaluation: a client that
		// disconnects mid-query cancels its shard fan-out, and the
		// -query-timeout deadline bounds it.
		hits, err := ds.Corpus.QueryContext(r.Context(), data.Query, data.Bound, extract.WithMaxResults(maxPageHits))
		if err != nil {
			var code int
			code, data.Error = queryFailure(w, err)
			w.Header().Set("Content-Type", "text/html; charset=utf-8")
			w.WriteHeader(code)
		}
		kws := extract.Tokenize(data.Query)
		for i, h := range hits {
			text := baseline.TextWindow(h.Result.Root(), kws, 16)
			data.Hits = append(data.Hits, hitView{
				Index:    i + 1,
				Key:      h.Snippet.ResultKey(),
				Edges:    h.Snippet.Edges(),
				Size:     h.Result.Size(),
				Snippet:  template.HTML(h.Snippet.HTML()),
				Text:     text.Text,
				IList:    strings.Join(h.Snippet.IList(), ", "),
				Covered:  len(h.Snippet.Covered()),
				IListLen: len(h.Snippet.IList()),
				ViewURL: fmt.Sprintf("/view?dataset=%s&q=%s&result=%d",
					template.URLQueryEscaper(data.Dataset),
					template.URLQueryEscaper(data.Query), i),
			})
		}
	}
	if err := s.tmpl.Execute(w, data); err != nil {
		log.Printf("extractd: render: %v", err)
	}
}

// datasetStats is one dataset's row of the /stats endpoint.
type datasetStats struct {
	Shards int                 `json:"shards"`
	Cache  *extract.CacheStats `json:"cache"` // every dataset serves through the query cache

	// Refresh observability: which source kind the dataset reloads from,
	// its reload generation (0 = the boot-time load), and when/how the
	// last reload went — "delta" when unchanged shards were adopted,
	// "full" when everything was rebuilt.
	Source         string `json:"source,omitempty"` // "xml" or "snapshot"; absent for built-ins
	Reloads        int    `json:"reloads"`
	LastReload     string `json:"last_reload,omitempty"` // RFC 3339
	LastReloadMode string `json:"last_reload_mode,omitempty"`
}

// handleStats reports per-dataset serving-layer counters as JSON — the
// operational view of the query cache (hit rate, occupancy, evictions,
// admission rejects) and of the refresh path (reload generation, last
// reload time and mode).
func (s *server) handleStats(w http.ResponseWriter, _ *http.Request) {
	if s.notReady(w) {
		return
	}
	out := make(map[string]datasetStats, len(s.datasets))
	for name, ds := range s.datasets {
		row := datasetStats{Shards: ds.Corpus.Shards()}
		if st, ok := ds.Corpus.QueryCacheStats(); ok {
			row.Cache = &st
		}
		if ds.Path != "" {
			row.Source = "xml"
			if ds.Snapshot {
				row.Source = "snapshot"
			}
		}
		ds.obs.Lock()
		row.Reloads = ds.reloads
		if !ds.lastReload.IsZero() {
			row.LastReload = ds.lastReload.Format(time.RFC3339)
			row.LastReloadMode = ds.lastMode
		}
		ds.obs.Unlock()
		out[name] = row
	}
	w.Header().Set("Content-Type", "application/json")
	if err := json.NewEncoder(w).Encode(out); err != nil {
		log.Printf("extractd: stats: %v", err)
	}
}

// handleReload reloads one file-backed dataset from its source file:
// POST /reload?dataset=name. The swap is online — concurrent searches keep
// answering, first against the old corpus, then the new.
func (s *server) handleReload(w http.ResponseWriter, r *http.Request) {
	if s.notReady(w) {
		return
	}
	if r.Method != http.MethodPost {
		writeError(w, http.StatusMethodNotAllowed, "POST only")
		return
	}
	ds := s.datasets[r.FormValue("dataset")]
	if ds == nil {
		writeError(w, http.StatusNotFound, "unknown dataset")
		return
	}
	if ds.Path == "" {
		writeError(w, http.StatusConflict, "dataset is not file-backed")
		return
	}
	if err := s.reload(ds); err != nil {
		// Reload failures are operator-actionable: the cause (a parse
		// error, a bad image) goes back to whoever POSTed, and is logged
		// either way.
		log.Printf("extractd: reload %s: %v", ds.Name, err)
		writeError(w, http.StatusInternalServerError, "reload failed: "+err.Error())
		return
	}
	ds.obs.Lock()
	mode, gen := ds.lastMode, ds.reloads
	ds.obs.Unlock()
	w.Header().Set("Content-Type", "application/json")
	if err := json.NewEncoder(w).Encode(map[string]any{
		"dataset": ds.Name,
		"shards":  ds.Corpus.Shards(),
		"nodes":   ds.Corpus.Stats().Nodes,
		"mode":    mode,
		"reloads": gen,
	}); err != nil {
		log.Printf("extractd: reload: %v", err)
	}
}

// maxPageHits is the most hits a search page lists, so the most /view links
// one query has. /view evaluates under this one bound whichever result is
// asked for — a query's view links share one cache entry and one engine set
// — and refuses an index at or past it before evaluating anything.
const maxPageHits = 25

func (s *server) handleView(w http.ResponseWriter, r *http.Request) {
	if s.notReady(w) {
		return
	}
	ds := s.datasets[r.FormValue("dataset")]
	if ds == nil {
		writeError(w, http.StatusNotFound, "unknown dataset")
		return
	}
	idx, err := strconv.Atoi(r.FormValue("result"))
	if err != nil || idx < 0 {
		writeError(w, http.StatusBadRequest, "bad result index")
		return
	}
	if idx >= maxPageHits {
		writeError(w, http.StatusNotFound, "result not found")
		return
	}
	results, err := ds.Corpus.SearchContext(r.Context(), r.FormValue("q"), extract.WithMaxResults(maxPageHits))
	if err != nil {
		code, msg := queryFailure(w, err)
		writeError(w, code, msg)
		return
	}
	if idx >= len(results) {
		writeError(w, http.StatusNotFound, "result not found")
		return
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	fmt.Fprint(w, results[idx].XML())
}

const pageHTML = `<!DOCTYPE html>
<html><head><title>eXtract: XML search result snippets</title>
<style>
 body { font-family: sans-serif; margin: 2em; max-width: 75em; }
 pre { background: #f6f6f6; padding: .6em; overflow-x: auto; }
 .hit { border: 1px solid #ccc; margin: 1em 0; padding: .8em; }
 .cols { display: flex; gap: 1em; } .cols > div { flex: 1; }
 .muted { color: #666; font-size: .9em; }
 input[type=text] { width: 24em; }
 ul.xmltree, ul.xmltree ul { list-style: none; padding-left: 1.2em; margin: .2em 0; }
 ul.xmltree .tag { color: #046; font-weight: 600; }
 ul.xmltree mark { background: #ffd54d; }
</style></head>
<body>
<h1>eXtract</h1>
<p class="muted">Snippet generation for XML keyword search (Huang, Liu, Chen — VLDB 2008 demo).</p>
<form method="GET" action="/">
 dataset: <select name="dataset">
 {{range .Datasets}}<option {{if eq . $.Dataset}}selected{{end}}>{{.}}</option>{{end}}
 </select>
 keywords: <input type="text" name="q" value="{{.Query}}" placeholder="store texas" list="kw">
 <datalist id="kw">{{range .Suggestions}}<option value="{{.}}">{{end}}</datalist>
 snippet size: <input type="number" name="bound" value="{{.Bound}}" min="0" max="200" style="width:4em">
 <input type="submit" value="Search">
</form>
<p class="muted">{{.Stats}}</p>
{{if .Error}}<p style="color:#a00">{{.Error}}</p>{{end}}
{{if and .Ran (not .Hits) (not .Error)}}<p>No results.</p>{{end}}
{{range .Hits}}
<div class="hit">
 <b>result {{.Index}}</b>{{if .Key}} — <b>{{.Key}}</b>{{end}}
 <span class="muted">(snippet {{.Edges}} edges, covers {{.Covered}}/{{.IListLen}} items; full result {{.Size}} edges)</span>
 — <a href="{{.ViewURL}}">view full result</a>
 <div class="cols">
  <div><p class="muted">eXtract snippet</p>{{.Snippet}}</div>
  <div><p class="muted">text-engine snippet (best keyword window)</p><pre>{{.Text}}</pre></div>
 </div>
 <p class="muted">IList: {{.IList}}</p>
</div>
{{end}}
</body></html>`
