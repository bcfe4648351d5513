package extract

import (
	"context"
	"errors"
	"fmt"
	"io"
	"os"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"extract/internal/core"
	"extract/internal/dtd"
	"extract/internal/faultinject"
	"extract/internal/index"
	"extract/internal/ingest"
	"extract/internal/rank"
	"extract/internal/remote"
	"extract/internal/search"
	"extract/internal/serve"
	"extract/internal/shard"
	"extract/internal/telemetry"
	"extract/xmltree"
	"extract/xpath"
)

// ErrOverloaded rejects a query that would exceed the corpus's in-flight
// bound (WithMaxInFlight). It is returned before any
// evaluation work; servers should map it to HTTP 503 with a Retry-After.
var ErrOverloaded = serve.ErrOverloaded

// Corpus is an analyzed XML database: parsed tree, node classification
// (entity / attribute / connection), mined entity keys and keyword index.
// Every local corpus has one shape — n >= 1 shards with independent packed
// indexes (see internal/shard): one by default, where the shard is the
// document itself, more with WithShards, where queries fan out across them
// and merge; the API and the answers are identical. Every corpus answers
// Search and Query through one serving layer (internal/serve): a fixed
// worker pool bounds evaluation concurrency, and repeated queries are
// answered from a size-bounded LRU cache keyed on the parsed query itself —
// tune it with WithWorkers and WithQueryCache. Reload swaps in freshly analyzed data without dropping
// in-flight queries.
type Corpus struct {
	// data is the corpus's current analyzed state, replaced atomically by
	// Reload; every method works on one coherent snapshot of it.
	data atomic.Pointer[corpusData]

	// serving is the serving-layer configuration the load options asked
	// for, fixed at construction.
	serving servingConfig

	// reg collects the corpus's metrics (query latency histograms, cache
	// and failure counters, reload timings); see WriteMetrics. It exists
	// from construction so reload metrics record even before the serving
	// layer starts.
	reg *telemetry.Registry

	srvOnce sync.Once
	srv     *serve.Server

	// reloadMu serializes Reload: publishing the data generation and
	// swapping the serving backend must be one step, or two racing
	// reloads could leave queries served from one generation and
	// Stats/Suggest/SaveSnapshot reading another.
	reloadMu sync.Mutex
}

// corpusData is one immutable generation of a corpus's analyzed state.
// Reload publishes a new generation and swaps the serving layer onto it;
// queries in flight keep the snapshot they started with.
type corpusData struct {
	// gen is the generation's corpus and identity (root fingerprint +
	// per-shard content hashes) — what the next delta reload diffs against
	// and adopts from. On a remote generation gen.Corpus is nil: the data
	// lives in the shard servers, and gen.Source is the identity the router
	// placed them by.
	gen ingest.Generation
	// rt serves the generation from a remote shard-server tier (Connect);
	// nil for a local corpus.
	rt *remote.Router
}

// rankedBackend is what serves one corpus generation: the serving layer's
// corpus interface plus the relevance scorer ranking reads and the keyword
// completion Suggest reads. *shard.Corpus and *remote.Router are the two
// implementations, and the only backends the serving layer holds, so a
// served answer's Backend ranks it on the generation that produced it —
// during a reload, not necessarily the corpus's current one.
type rankedBackend interface {
	serve.Backend
	// Scorer returns the relevance scorer of a query of term keys keys over
	// the corpus-wide statistics; only a remote fetch of them fails.
	Scorer(ctx context.Context, keys []string) (*rank.Scorer, error)
	// CompletePrefix returns up to k keywords starting with prefix, most
	// frequent first.
	CompletePrefix(prefix string, k int) []string
}

// backend returns the generation's serving side.
func (d *corpusData) backend() rankedBackend {
	if d.rt != nil {
		return d.rt
	}
	return d.gen.Corpus
}

// server returns the corpus's lazily started serving layer.
func (c *Corpus) server() *serve.Server {
	c.srvOnce.Do(func() {
		// The serve options ignore out-of-range values (a non-positive
		// worker count, a negative cache budget, ...) and keep their
		// defaults, so the configured values go straight through.
		cfg := c.serving
		opts := []serve.Option{
			serve.WithWorkers(cfg.workers),
			serve.WithCacheBytes(cfg.cache),
			serve.WithQueryTimeout(cfg.timeout),
			serve.WithMaxInFlight(cfg.maxInFlight),
			serve.WithTelemetry(c.reg),
		}
		if fn := cfg.slowFn; fn != nil {
			opts = append(opts, serve.WithSlowQueries(cfg.slowThreshold, func(qt telemetry.QueryTrace) {
				fn(traceFromInternal(qt))
			}))
		}
		c.srv = serve.New(c.data.Load().backend(), opts...)
	})
	return c.srv
}

// newCorpus makes a corpus with the serving configuration its load options
// asked for; the caller stores its first generation.
func newCorpus(cfg loadConfig) *Corpus {
	c := &Corpus{serving: cfg.serving, reg: telemetry.NewRegistry()}
	c.reloadSegments()
	c.reloadBytes()
	return c
}

// newLocal wraps a local corpus generation.
func newLocal(gen *ingest.Generation, cfg loadConfig) *Corpus {
	c := newCorpus(cfg)
	c.data.Store(&corpusData{gen: *gen})
	return c
}

// Close releases the serving layer's worker pool. Only long-lived servers
// need it; a dropped Corpus cleans up on garbage collection, and queries
// after Close still work (evaluation runs on the calling goroutine).
func (c *Corpus) Close() {
	// Going through server() makes Close safe against a concurrent
	// first query: the sync.Once orders the pool's creation before
	// its stop (worst case it builds a pool only to stop it).
	c.server().Close()
	if rt := c.data.Load().rt; rt != nil {
		rt.Close()
	}
}

// DeltaStats reports what one reload did: how many shards the new
// generation has, how many were adopted unchanged from the previous one,
// and how many were rebuilt (or, for a snapshot reload, reloaded from
// their packed images). What an XML reload read for the rebuilt shards is
// counted apart, in ReloadSegments.
type DeltaStats struct {
	Shards  int `json:"shards"`
	Reused  int `json:"reused"`
	Rebuilt int `json:"rebuilt"`
}

// Mode names the refresh that happened: "delta" when at least one shard
// was adopted, "full" otherwise.
func (s DeltaStats) Mode() string {
	if s.Reused > 0 {
		return "delta"
	}
	return "full"
}

// publish is the one step every reload ends in. Under reloadMu, next makes
// the new generation out of the serving one, reporting how many of its
// shards it adopted and what it read; that generation is stored, the
// serving layer swapped onto it (serve.Server.Swap) — which bumps the
// query-cache epoch, so no response computed against the old data enters
// the cache, and keeps only the cached responses the new generation may
// re-prove, each replayed only once round one on the new generation has
// picked its results again — and the outcome recorded. An
// error from next leaves the old generation serving. next runs under the
// lock, so concurrent reloads are serialized end to end and each one diffs
// against exactly the generation it replaces.
func (c *Corpus) publish(source string, next func(old *corpusData) (d *corpusData, st loadStats, err error)) (stats DeltaStats, err error) {
	var st loadStats
	defer func(start time.Time) { c.recordReload(source, stats, st, start, err) }(time.Now())
	c.reloadMu.Lock()
	defer c.reloadMu.Unlock()
	d, st, err := next(c.data.Load())
	if err != nil {
		return DeltaStats{}, err
	}
	c.data.Store(d)
	c.server().Swap(d.backend())
	n := len(d.gen.Source.Shards)
	return DeltaStats{Shards: n, Reused: st.Reused, Rebuilt: n - st.Reused}, nil
}

// Reload replaces the corpus's analyzed data with src's — the online
// index-refresh path. The swap is atomic: queries already in flight finish
// against the data they started on, later queries see only the new data,
// and the query cache is invalidated in the same step (responses computed
// against the old data never enter it; src shares no shard with the data it
// replaces, so no cached response survives). Concurrent Reload calls are
// serialized; the one that starts last wins. src may have any shard count
// — reloading can change it — and is consumed: it must not be used
// afterwards. The receiving corpus keeps its own serving configuration
// (workers, cache budget).
func (c *Corpus) Reload(src *Corpus) {
	c.publish("swap", func(*corpusData) (*corpusData, loadStats, error) { return src.data.Load(), loadStats{}, nil })
}

// reloadSourceFault fires the chaos hook standing for an unreadable reload
// source (see internal/faultinject).
func reloadSourceFault() error {
	if faultinject.Enabled() {
		return faultinject.Fire(faultinject.ReloadSource)
	}
	return nil
}

// ReloadDelta is Reload with the new corpus built incrementally from XML
// source. The source is split at its root's children — scanning only the
// head, the tail and what moved between: the runs of children the serving
// generation read at the same offsets from either end of its input are
// passed over (extract_reload_bytes_total) — and cut into blocks
// with the same partitioner a fresh load uses; a block whose bytes are the
// serving generation's is adopted without a parse — document, packed index
// and share of the analysis intact — and every other block is parsed and
// hashed, adopted still if its content did not move (a whitespace edit),
// else re-indexed and re-inferred. The global analysis (classification and
// keys) is the merge of every shard's share. The generation is built by the
// very function a fresh Load calls (internal/ingest, with the serving
// generation to adopt from), so the resulting corpus is byte-identical to a
// fresh Load of the same source with the same options (pinned by property
// tests and a fuzzer); the swap itself behaves like Reload, including the
// query-cache epoch bump, except that the cache keeps each response whose
// results all lie in adopted shards, when the classification and keys are
// unchanged: its next lookup re-runs round one, replays it when the winners
// are the same — no result built, no snippet made — and computes it afresh
// otherwise; every other response is dropped. A parse or option error — the one a
// fresh Load reports — leaves the old generation serving. opts are the
// load options a fresh load would get; pass the same ones every reload, or
// the shard layout shifts and nothing can be adopted (which is always
// correct, just not cheap).
func (c *Corpus) ReloadDelta(r io.Reader, opts ...Option) (DeltaStats, error) {
	return c.reloadDelta(fromReader(r), opts)
}

func (c *Corpus) reloadDelta(src source, opts []Option) (DeltaStats, error) {
	return c.publish("xml", func(old *corpusData) (*corpusData, loadStats, error) {
		if err := reloadSourceFault(); err != nil {
			return nil, loadStats{}, err
		}
		if old.rt != nil {
			return nil, loadStats{}, ErrRemoteCorpus
		}
		cfg, err := foldOptions(opts)
		if err != nil {
			return nil, loadStats{}, err
		}
		gen, st, err := cfg.generation(src, &old.gen)
		if err != nil {
			return nil, loadStats{}, err
		}
		return &corpusData{gen: *gen}, st, nil
	})
}

// ReloadDeltaFile is ReloadDelta reading the XML source from a file, in
// one sized read.
func (c *Corpus) ReloadDeltaFile(path string, opts ...Option) (DeltaStats, error) {
	return c.reloadDelta(fromFile(path), opts)
}

// ReloadSnapshot is Reload with the new corpus read from a snapshot
// directory (see SaveSnapshot), incrementally: the snapshot manifest's
// per-shard content hashes are diffed against the serving generation's,
// unchanged shards are adopted in place, and only changed shard images are
// verified and decoded from disk — the refresh path for deployments that
// ship index updates as snapshot directories instead of raw XML. When the
// shapes do not line up the whole snapshot loads, which is still just mmap +
// decode, never re-analysis. On a remote corpus (Connect) the manifest and
// analysis image are re-read and the shards re-placed on the same router;
// the shard servers swap generations on their own. The swap behaves like
// ReloadDelta's on a local corpus, whose cache keeps the responses that lie
// in adopted shards to re-prove, and like Reload on a remote one, whose
// cache keeps none; a read error — including a directory caught mid-refresh
// (ingest.ErrImageMismatch, ingest.ErrSnapshotChanging) — leaves the old
// generation serving.
func (c *Corpus) ReloadSnapshot(dir string) (DeltaStats, error) {
	return c.publish("snapshot", func(old *corpusData) (*corpusData, loadStats, error) {
		if err := reloadSourceFault(); err != nil {
			return nil, loadStats{}, err
		}
		if old.rt != nil {
			if err := old.rt.ReloadSnapshot(dir); err != nil {
				return nil, loadStats{}, err
			}
			// A shard counts as reused by the rule LoadDelta adopts by;
			// the shard servers swap on their own.
			src := old.rt.Source()
			_, reused := ingest.Adoptable(old.gen.Source, src)
			return &corpusData{rt: old.rt, gen: ingest.Generation{Source: src}}, loadStats{Stats: ingest.Stats{Reused: reused}}, nil
		}
		gen, reused, err := ingest.LoadDelta(dir, &old.gen)
		if err != nil {
			return nil, loadStats{}, err
		}
		return &corpusData{gen: *gen}, loadStats{Stats: ingest.Stats{Reused: reused}}, nil
	})
}

// SaveSnapshot writes the corpus as a snapshot directory: a manifest with
// per-shard content hashes plus packed images (see internal/ingest). A
// snapshot is both the cheapest thing to serve from — LoadSnapshot
// memory-maps it and re-analyzes nothing — and the unit of incremental
// refresh: re-snapshotting after a small change rewrites only the changed
// shard images, and ReloadSnapshot adopts the unchanged ones in place.
func (c *Corpus) SaveSnapshot(dir string) error {
	defer c.recordSnapshotSave(time.Now())
	d := c.data.Load()
	if d.rt != nil {
		return ErrRemoteCorpus
	}
	return ingest.Snapshot(dir, d.gen.Corpus)
}

// LoadSnapshot opens a snapshot directory written by SaveSnapshot, every
// image verified against the manifest's record of it. The shard count comes
// from the snapshot itself, so of the load options only the serving-layer
// ones — WithWorkers, WithQueryCache, WithQueryTimeout, WithMaxInFlight and
// WithSlowQueryLog — apply; shard, DTD and parse options are ignored.
func LoadSnapshot(dir string, opts ...Option) (*Corpus, error) {
	cfg, err := foldOptions(opts)
	if err != nil {
		return nil, err
	}
	gen, err := ingest.Load(dir)
	if err != nil {
		return nil, err
	}
	return newLocal(gen, cfg), nil
}

// CacheStats is a point-in-time snapshot of the query cache: hit/miss
// counters, queries coalesced onto an in-flight identical computation,
// responses the admission filter declined to cache (a query seen only once
// may fill spare capacity but never evicts the warm working set), current
// occupancy against the configured budget, and the failure counters —
// queries failed by a recovered evaluation panic, and queries shed by the
// in-flight bound (ErrOverloaded).
type CacheStats = serve.Stats

// QueryCacheStats reports the query-cache counters of the corpus's serving
// layer. Every corpus has one, so ok is always true; it is retained so
// callers written against the sharded-only serving layer keep compiling.
func (c *Corpus) QueryCacheStats() (stats CacheStats, ok bool) {
	return c.server().Stats(), true
}

// analysis returns the document-less corpus carrying the classification and
// keys that snippet generation needs.
func (c *Corpus) analysis() *core.Corpus {
	return c.data.Load().backend().Analysis()
}

// Option configures corpus loading.
type Option func(*loadConfig) error

type loadConfig struct {
	dtd      *dtd.DTD
	maxNodes int
	shards   int
	serving  servingConfig
}

// servingConfig is the part of the load options a Corpus keeps: what its
// serving layer starts with.
type servingConfig struct {
	workers       int
	cache         int64 // budget in bytes; -1 = serve.DefaultCacheBytes
	timeout       time.Duration
	maxInFlight   int
	slowThreshold time.Duration
	slowFn        func(QueryTrace)
}

// WithDTD supplies DTD text governing entity classification; without it the
// structure is inferred from the data.
func WithDTD(dtdText string) Option {
	return func(c *loadConfig) error {
		d, err := dtd.ParseString(dtdText)
		if err != nil {
			return err
		}
		c.dtd = d
		return nil
	}
}

// WithDTDFile reads the DTD from a file.
func WithDTDFile(path string) Option {
	return func(c *loadConfig) error {
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		d, err := dtd.ParseString(string(data))
		if err != nil {
			return err
		}
		c.dtd = d
		return nil
	}
}

// WithMaxNodes bounds the parsed document size.
func WithMaxNodes(n int) Option {
	return func(c *loadConfig) error {
		c.maxNodes = n
		return nil
	}
}

// WithShards partitions the corpus into up to n shards (by top-level
// entities, contiguously and size-balanced), each with its own packed
// inverted index. Queries evaluate per shard in parallel and merge through
// a bounded top-k merge; results and snippets are identical whatever n is.
// n < 2 — the default — loads one shard: the document itself, evaluated
// inline with nothing to merge.
func WithShards(n int) Option {
	return func(c *loadConfig) error {
		if n < 0 {
			return fmt.Errorf("extract: negative shard count %d", n)
		}
		c.shards = n
		return nil
	}
}

// WithWorkers sets the serving layer's worker-pool size (default
// GOMAXPROCS): the fixed number of goroutines that all fanned-out work —
// per-shard evaluation, snippet generation — runs on, no matter how many
// queries are in flight. A one-shard corpus has no evaluation fan-out to
// bound: its lone engine's evaluation runs on the goroutine that asked.
func WithWorkers(n int) Option {
	return func(c *loadConfig) error {
		if n < 0 {
			return fmt.Errorf("extract: negative worker count %d", n)
		}
		c.serving.workers = n
		return nil
	}
}

// WithQueryCache sets the query-cache budget in bytes. Repeated queries
// (same keywords in the same order, options and snippet bound) are answered
// from a sharded LRU cache instead of being recomputed; 0 disables caching.
// The default is a modest budget (see internal/serve.DefaultCacheBytes).
// Every corpus — any shard count, local or remote — caches alike: all serve
// queries through the same layer.
func WithQueryCache(bytes int64) Option {
	return func(c *loadConfig) error {
		if bytes < 0 {
			return fmt.Errorf("extract: negative query-cache budget %d", bytes)
		}
		c.serving.cache = bytes
		return nil
	}
}

// WithQueryTimeout sets a per-query deadline (default none): a query still
// evaluating when it expires stops at the next checkpoint and returns
// context.DeadlineExceeded. Queries carrying an earlier deadline on their
// own context (SearchContext, QueryContext) keep it.
func WithQueryTimeout(d time.Duration) Option {
	return func(c *loadConfig) error {
		if d < 0 {
			return fmt.Errorf("extract: negative query timeout %v", d)
		}
		c.serving.timeout = d
		return nil
	}
}

// WithMaxInFlight bounds the number of queries evaluated concurrently
// (default unlimited). Queries beyond the bound fail immediately with
// ErrOverloaded instead of queueing — overload degrades to fast clean
// errors a client can retry.
func WithMaxInFlight(n int) Option {
	return func(c *loadConfig) error {
		if n < 0 {
			return fmt.Errorf("extract: negative in-flight bound %d", n)
		}
		c.serving.maxInFlight = n
		return nil
	}
}

// WithSlowQueryLog installs fn as the corpus's slow-query hook: every query
// whose end-to-end latency reaches threshold is reported after its response
// is ready, as the QueryTrace RecentTraces would show for it plus the
// query's tokenized Keywords. fn runs on the query's goroutine and must not
// block. A zero threshold or nil fn — the default — disables the hook.
func WithSlowQueryLog(threshold time.Duration, fn func(QueryTrace)) Option {
	return func(c *loadConfig) error {
		if threshold < 0 {
			return fmt.Errorf("extract: negative slow-query threshold %v", threshold)
		}
		c.serving.slowThreshold, c.serving.slowFn = threshold, fn
		return nil
	}
}

// foldOptions applies load options over the defaults — the one fold every
// constructor and reload starts with.
func foldOptions(opts []Option) (loadConfig, error) {
	cfg := loadConfig{serving: servingConfig{cache: -1}}
	for _, o := range opts {
		if err := o(&cfg); err != nil {
			return loadConfig{}, err
		}
	}
	return cfg, nil
}

// parseOptions returns the parser options the configuration asks for.
func (cfg *loadConfig) parseOptions() []xmltree.ParseOption {
	if cfg.maxNodes > 0 {
		return []xmltree.ParseOption{xmltree.WithMaxNodes(cfg.maxNodes)}
	}
	return nil
}

// source yields the bytes of one XML document: a reader read to its end,
// or a file read in one sized read.
type source func() ([]byte, error)

func fromReader(r io.Reader) source { return func() ([]byte, error) { return io.ReadAll(r) } }

func fromFile(path string) source { return func() ([]byte, error) { return os.ReadFile(path) } }

// testHookSplit, when a test sets it, sees the split of each document a load
// or XML reload builds from.
var testHookSplit func(*xmltree.Split)

// generation reads one XML document and builds it into a corpus generation,
// adopting from prev (nil for none) what a delta may. The document is split
// at its root's children, passing over the runs of them prev read where the
// input still holds them (ingest.SplitAfter), and built from its segments
// (ingest.BuildSplit), parsing only the ones the build needs. Whatever the
// split path refuses or cannot take — a root level segments cannot stand
// for, a malformed segment, the node bound — one whole parse decides, so a
// document's error is ParseBytes's. A DOCTYPE internal subset governs classification unless
// the caller supplied an explicit DTD. Load and ReloadDelta both go through
// here: "a delta reload is byte-identical to a fresh load" depends on the two
// applying one rule.
func (cfg *loadConfig) generation(src source, prev *ingest.Generation) (*ingest.Generation, loadStats, error) {
	data, err := src()
	if err != nil {
		return nil, loadStats{}, err
	}
	if sp := ingest.SplitAfter(data, prev, cfg.parseOptions()...); sp != nil {
		if testHookSplit != nil {
			testHookSplit(sp)
		}
		if d, err := cfg.classifyingDTD(sp.InternalSubset); err == nil {
			if g, st, err := ingest.BuildSplit(sp, cfg.shards, d, prev); err == nil {
				skipped := sp.Skipped()
				return g, loadStats{Stats: st, scanned: len(data) - skipped, skipped: skipped}, nil
			}
		}
	}
	doc, err := xmltree.ParseBytes(data, cfg.parseOptions()...)
	if err != nil {
		return nil, loadStats{}, err
	}
	d, err := cfg.classifyingDTD(doc.InternalSubset)
	if err != nil {
		return nil, loadStats{}, err
	}
	entities := len(doc.Root.Children)
	g, reused := ingest.Build(doc, cfg.shards, d, prev)
	return g, loadStats{Stats: ingest.Stats{Reused: reused, Parsed: entities}, scanned: len(data)}, nil
}

// loadStats is what making a generation read of its input: the top-level
// entities (ingest.Stats) and, from XML, the bytes scanned and the bytes a
// split passed over because the serving generation had read them (see
// ingest.SplitAfter). A whole parse scans every byte.
type loadStats struct {
	ingest.Stats
	scanned, skipped int
}

// classifyingDTD resolves the DTD a document classifies under: the caller's,
// else its DOCTYPE internal subset's, else none.
func (cfg *loadConfig) classifyingDTD(subset string) (*dtd.DTD, error) {
	if cfg.dtd != nil || subset == "" {
		return cfg.dtd, nil
	}
	d, err := dtd.ParseString(subset)
	if err != nil {
		return nil, fmt.Errorf("extract: internal DTD subset: %w", err)
	}
	return d, nil
}

// build analyzes a parsed document into a corpus under the configuration.
func (cfg loadConfig) build(doc *xmltree.Document) *Corpus {
	gen, _ := ingest.Build(doc, cfg.shards, cfg.dtd, nil)
	return newLocal(gen, cfg)
}

// Load parses and analyzes an XML database from r.
func Load(r io.Reader, opts ...Option) (*Corpus, error) {
	return load(fromReader(r), opts)
}

func load(src source, opts []Option) (*Corpus, error) {
	cfg, err := foldOptions(opts)
	if err != nil {
		return nil, err
	}
	gen, _, err := cfg.generation(src, nil)
	if err != nil {
		return nil, err
	}
	return newLocal(gen, cfg), nil
}

// LoadString parses and analyzes an XML database from a string.
func LoadString(s string, opts ...Option) (*Corpus, error) {
	return Load(strings.NewReader(s), opts...)
}

// ErrResultGone is the error a remote corpus's result returns from its tree
// accessors (Result.Root, XML, Render, Internal; Corpus.Snippet) when no
// shard server still serves the generation that answered the query: the
// tier moved on — a reload — between the answer and the read. The tree is
// never read from another generation; query again for the new one's.
var ErrResultGone = remote.ErrResultGone

// ErrRemoteCorpus rejects an operation that needs local corpus data —
// whole-document access, index persistence, or in-process reload — on a
// corpus connected to a remote serving tier, which holds only the
// snapshot's analysis artifacts locally.
var ErrRemoteCorpus = errors.New("extract: operation requires local corpus data (corpus is served by a remote shard tier)")

// Connect opens a corpus served by a remote shard-server tier instead of
// local data: dir is the snapshot directory — any SaveSnapshot wrote, one
// shard or many — the tier was started from (only its manifest and small
// analysis image are read; the shard images stay with the servers), and
// groups lists the replica addresses of
// each shard-server group (groups[g] are peers serving the same placement
// subset; see cmd/extractd's -shard-server mode). Queries, snippets,
// ranking and Suggest behave exactly as on a local corpus — the router pins
// answers byte-identical, and a result's tree is fetched when first read
// (see Result) — and the serving layer (cache, deadlines, worker pool)
// applies unchanged, so only the WithWorkers, WithQueryCache,
// WithQueryTimeout, WithMaxInFlight and WithSlowQueryLog load options are
// meaningful. Operations that need
// the documents themselves (XPath, SaveSnapshot, delta reload)
// return ErrRemoteCorpus; ReloadSnapshot re-reads the manifest and re-places
// shards, pairing with the servers' own reload. Close also disconnects.
func Connect(dir string, groups [][]string, opts ...Option) (*Corpus, error) {
	cfg, err := foldOptions(opts)
	if err != nil {
		return nil, err
	}
	c := newCorpus(cfg)
	rt, err := remote.OpenSnapshot(dir, groups, remote.WithRouterTelemetry(c.reg))
	if err != nil {
		return nil, err
	}
	// The identity recorded is the one the router placed shards by, not a
	// second read of a directory a writer may have refreshed since.
	c.data.Store(&corpusData{rt: rt, gen: ingest.Generation{Source: rt.Source()}})
	return c, nil
}

// LoadFile parses and analyzes an XML database from a file.
func LoadFile(path string, opts ...Option) (*Corpus, error) {
	return load(fromFile(path), opts)
}

// LoadFiles parses several XML files into one corpus: the documents become
// children of a synthetic <collection> root, so entities, keys and queries
// span all of them (the demo site's multi-dataset setting in one corpus).
func LoadFiles(paths []string, opts ...Option) (*Corpus, error) {
	if len(paths) == 0 {
		return nil, fmt.Errorf("extract: no files")
	}
	cfg, err := foldOptions(opts)
	if err != nil {
		return nil, err
	}
	popts := cfg.parseOptions()
	root := xmltree.Elem("collection")
	for _, path := range paths {
		doc, err := xmltree.ParseFile(path, popts...)
		if err != nil {
			return nil, fmt.Errorf("extract: %s: %w", path, err)
		}
		xmltree.Append(root, doc.Root)
	}
	return cfg.build(xmltree.NewDocument(root)), nil
}

// Suggest returns up to k indexed keywords starting with prefix, most
// frequent first — query autocompletion. Across several shards the
// per-shard completions merge, re-ranked by corpus-wide frequency; a remote
// corpus asks a shard server, which answers the same list (or none, when
// no replica answers).
func (c *Corpus) Suggest(prefix string, k int) []string {
	return c.data.Load().backend().CompletePrefix(prefix, k)
}

// FromDocument analyzes an already-parsed document as a one-shard corpus.
// d may be nil. The corpus serves doc itself — nothing is moved or copied,
// and query results are views of its nodes — so the caller must not mutate
// it afterwards. opts are as for FromDocumentSharded.
func FromDocument(doc *xmltree.Document, d *dtd.DTD, opts ...Option) *Corpus {
	return FromDocumentSharded(doc, d, 1, opts...)
}

// FromDocumentSharded analyzes an already-parsed document and partitions it
// into up to n shards. d may be nil; like FromDocument, any DOCTYPE
// internal subset is ignored here (Load resolves it before constructing),
// so corpora built from the same document classify identically whatever n
// is. When the document partitions (n > 1, at least two top-level entities)
// its nodes are moved into the shards and doc is invalid afterwards;
// otherwise the corpus serves doc itself, exactly as FromDocument does.
//
// The document, DTD and shard count being arguments, only the serving-layer
// load options — WithWorkers, WithQueryCache, WithQueryTimeout,
// WithMaxInFlight, WithSlowQueryLog — apply. There is no error to return, so
// an option that rejects its value (a negative count) panics: option values
// here are the program's own constants, not input.
func FromDocumentSharded(doc *xmltree.Document, d *dtd.DTD, n int, opts ...Option) *Corpus {
	cfg, err := foldOptions(opts)
	if err != nil {
		panic(err)
	}
	cfg.dtd, cfg.shards = d, n
	return cfg.build(doc)
}

// InternalShards exposes the local corpus — every local corpus is a
// shard.Corpus of n >= 1 shards. It is nil only for a remote corpus
// (Connect).
func (c *Corpus) InternalShards() *shard.Corpus { return c.data.Load().gen.Corpus }

// Shards returns the number of index shards (1 by default).
func (c *Corpus) Shards() int {
	d := c.data.Load()
	if d.rt != nil {
		return d.rt.NumShards()
	}
	return d.gen.Corpus.NumShards()
}

// Stats summarizes the corpus.
type Stats struct {
	Nodes            int
	Elements         int
	MaxDepth         int
	DistinctKeywords int
	Entities         []string
	Attributes       []string
	Connections      []string
}

// Stats returns corpus summary statistics, aggregated across shards
// (shard-root copies deduplicated). The node-level figures are computed once
// per corpus generation, so calling it per request is cheap.
func (c *Corpus) Stats() Stats {
	d := c.data.Load()
	if d.rt != nil {
		// Only what the analysis artifacts and the (remote) corpus-wide
		// counters can answer, both of one generation; node-level
		// statistics stay with the data.
		analysis, elements := d.rt.Stats()
		cls := analysis.Cls
		return Stats{
			Elements:    elements,
			Entities:    cls.Entities(),
			Attributes:  cls.Attributes(),
			Connections: cls.Connections(),
		}
	}
	sc := d.gen.Corpus
	cls := sc.Classification()
	return Stats{
		Nodes:            sc.TotalNodes(),
		Elements:         sc.TotalElements(),
		MaxDepth:         sc.MaxDepth(),
		DistinctKeywords: sc.DistinctKeywords(),
		Entities:         cls.Entities(),
		Attributes:       cls.Attributes(),
		Connections:      cls.Connections(),
	}
}

// EntityKey returns the mined key attribute of an entity label.
func (c *Corpus) EntityKey(entity string) (attr string, ok bool) {
	return c.analysis().Keys.KeyAttr(entity)
}

// SearchOption configures query evaluation.
type SearchOption func(*searchConfig)

type searchConfig struct {
	opts   search.Options
	ranked bool
}

// WithELCA evaluates queries under ELCA semantics instead of SLCA.
func WithELCA() SearchOption {
	return func(c *searchConfig) { c.opts.Semantics = search.SemanticsELCA }
}

// WithMaxResults bounds the number of results. Under SLCA semantics the
// bound also terminates evaluation early: the scan stops as soon as the
// first n answers in document order are provable, without visiting the
// rest of the posting lists. The returned results are byte-identical to
// taking the first n of an unbounded query in document order (pinned by
// property tests). ELCA evaluation applies the bound only after computing
// the full answer set, since no document-order prefix of the ELCA set is
// provable mid-scan (see PERFORMANCE.md).
//
// Under WithRanking the bound is not the top n by score: it cuts in
// document order first, then ranking reorders what was kept, so a
// higher-scoring result past the first n in document order is never
// returned. A ranked bounded query can therefore answer differently from
// the first n of the same query ranked unbounded.
func WithMaxResults(n int) SearchOption {
	return func(c *searchConfig) { c.opts.MaxResults = n }
}

// WithTrimmedResults builds XSeek-style trimmed result trees instead of
// full anchor subtrees.
func WithTrimmedResults() SearchOption {
	return func(c *searchConfig) { c.opts.Mode = search.ModeXSeek }
}

// WithRanking orders results by relevance (IDF-weighted, depth-decayed
// keyword scores) instead of document order. Snippets complement ranking,
// per the paper; this supplies the ranking side. The order and scores are
// computed once per cached answer, on its first ranked read, and replayed to
// every later one. On a remote corpus the statistics that read needs come
// from the shard servers, and a query whose fetch fails on every replica
// fails with that remote error, even on a cache hit; the next ranked read of
// the answer fetches again.
func WithRanking() SearchOption {
	return func(c *searchConfig) { c.ranked = true }
}

// Result is one query result: a tree rooted at the result's anchor entity.
// It is a read-only view of the corpus document, shared with the query
// cache and with every other caller the same answer is replayed to, and on
// a local corpus it keeps the corpus generation that answered it reachable
// for as long as it is held — across reloads too; its tree accessors never
// fail there.
//
// On a remote corpus a result arrives without its tree: Size and Score
// never need it, and the first of RootContext, Root, XML, Render, Internal
// or Corpus.Snippet to ask fetches it — with the trees of every result of
// the same answer, in one call per shard-server group, the groups asked at
// once, once for every holder — from a shard server still serving the
// generation that answered. A result held while the tier moves to another
// generation can therefore no longer be read: its tree accessors return
// ErrResultGone, never a tree of the new generation. They fail, too, when no
// replica answers in time: RootContext within its context, the others
// within a bounded internal timeout.
//
// On a local corpus of several shards, the result anchored at the document
// root — the whole document, which spans shards — is answered and snippeted
// from the shards without a copy (Corpus.Snippet too); the first of
// RootContext, Root, XML, Render or Internal to ask for its tree builds the
// whole document as a tree of its own from the shards, once for every holder
// of the result, which keeps it — a query's cache entry is charged for it.
type Result struct {
	r     *search.Result
	score float64

	// The served answer r belongs to, whose trees are built together
	// (serve.Cached.Trees); nil for a result no server answered (XPath).
	v *serve.Cached
}

// Score returns the relevance score assigned by WithRanking (0 otherwise).
func (r *Result) Score() float64 { return r.score }

// Size returns the number of edges of the result tree.
func (r *Result) Size() int { return r.r.Size() }

// Root returns the result tree root. The tree is read-only: it is the
// corpus document's own subtree (a tree of its own only for trimmed results,
// for the whole-document result of a corpus of several shards — built from
// the shards on the first read — and on a remote corpus), shared by every
// holder of the result, so its nodes must never be mutated, and Root's
// Parent, Ord, Start and End are those of the enclosing document —
// Parent may lead out of the result. Copy with xmltree.DeepCopy to get a
// detached tree to edit. Only a remote result's Root can fail (see Result).
func (r *Result) Root() (*xmltree.Node, error) {
	return r.RootContext(context.Background())
}

// RootContext is Root honoring ctx: on a remote corpus, a tree fetch that
// outlasts ctx stops and returns the context's error.
func (r *Result) RootContext(ctx context.Context) (*xmltree.Node, error) {
	tree, err := r.tree(ctx)
	if err != nil {
		return nil, err
	}
	return tree.Root, nil
}

// XML serializes the result tree.
func (r *Result) XML() (string, error) {
	root, err := r.Root()
	if err != nil {
		return "", err
	}
	return xmltree.XMLString(root), nil
}

// Render draws the result tree as ASCII art.
func (r *Result) Render() (string, error) {
	root, err := r.Root()
	if err != nil {
		return "", err
	}
	return xmltree.RenderASCII(root), nil
}

// Internal exposes the underlying search result, with its tree, for tools.
func (r *Result) Internal() (*search.Result, error) { return r.tree(context.Background()) }

// tree returns the result with its tree. A deferred result of a served
// answer is built through the server, which builds the whole answer's trees
// and charges them to its cache entry.
func (r *Result) tree(ctx context.Context) (*search.Result, error) {
	if _, deferred := r.r.Retained(); deferred && r.v != nil {
		if _, err := r.v.Trees(ctx); err != nil {
			return nil, err
		}
	}
	return r.r.Tree(ctx)
}

// Search evaluates a conjunctive keyword query and returns the results.
// Double-quoted spans in the query are phrase terms. Results come in
// document order, or by relevance with WithRanking.
func (c *Corpus) Search(query string, opts ...SearchOption) ([]*Result, error) {
	return c.SearchContext(context.Background(), query, opts...)
}

// SearchContext is Search honoring ctx: a cancelled or expired query stops
// at the next evaluation checkpoint and returns the context's error. The
// corpus's own query timeout (WithQueryTimeout), when configured, still
// applies on top of any deadline ctx carries.
func (c *Corpus) SearchContext(ctx context.Context, query string, opts ...SearchOption) ([]*Result, error) {
	cfg := searchConfig{opts: search.Options{DistinctAnchors: true}}
	for _, f := range opts {
		f(&cfg)
	}
	// The serving layer answers repeated queries from its cache: the
	// response — slice and results — is the shared read-only entry.
	v, err := c.server().Do(ctx, query, cfg.opts, -1)
	if err != nil {
		return nil, err
	}
	var rk *serve.Ranking
	if cfg.ranked {
		if rk, err = ranking(ctx, v); err != nil {
			return nil, err
		}
	}
	out, slab := make([]*Result, len(v.Results)), make([]Result, len(v.Results))
	for i := range out {
		j, score := rk.At(i)
		slab[i] = Result{r: v.Results[j], score: score, v: v}
		out[i] = &slab[i]
	}
	return out, nil
}

// ranking returns v's relevance order. It is computed once per cache entry,
// over the statistics of the generation that answered (v.Backend) and the
// entry's term keys (v.Query.Keys), and every later ranked read of the entry
// replays it.
func ranking(ctx context.Context, v *serve.Cached) (*serve.Ranking, error) {
	return v.Ranked(func(rs []*search.Result) (*serve.Ranking, error) {
		scorer, err := v.Backend.(rankedBackend).Scorer(ctx, v.Query.Keys)
		if err != nil {
			return nil, err
		}
		order, scores := scorer.Order(rs, v.Query.Keys)
		return &serve.Ranking{Order: order, Scores: scores}, nil
	})
}

// SnippetOption configures snippet generation.
type SnippetOption func(*core.Generator)

// WithExactSelection replaces the greedy instance selector with exact
// branch-and-bound maximization (small results only).
func WithExactSelection() SnippetOption {
	return func(g *core.Generator) { g.Algorithm = core.AlgExact }
}

// Snippet is a generated result snippet with its derivation artifacts.
// XML, Edges and ResultKey read what every snippet carries; the other methods
// read its tree or IList. A query's snippet is kept as its XML, edges and key
// and gets its tree and IList on the first such read
// (core.Generated.Derived): a local corpus's derives them again from its
// result, a remote one's decodes them from the snippet record it received.
// One made by Corpus.Snippet or SnippetForTree carries them from the start.
type Snippet struct {
	g *core.Generated
	// v is the cache entry the snippet is a hit of, re-charged when a read
	// decodes it (serve.Cached.Derived); nil outside a query's hits.
	v *serve.Cached
}

// derived returns the snippet with its tree and IList.
func (s *Snippet) derived() *core.Generated {
	if s.v != nil {
		return s.v.Derived(s.g)
	}
	return s.g.Derived()
}

// Edges returns the snippet size in edges.
func (s *Snippet) Edges() int { return s.g.Edges }

// Root returns the snippet tree.
func (s *Snippet) Root() *xmltree.Node { return s.derived().Snippet.Root }

// Render draws the snippet as ASCII art.
func (s *Snippet) Render() string { return xmltree.RenderASCII(s.derived().Snippet.Root) }

// Inline renders the snippet on one line.
func (s *Snippet) Inline() string { return xmltree.RenderInline(s.derived().Snippet.Root) }

// XML serializes the snippet tree. The bytes are rendered once, when the
// snippet is made — for a query's hits, once per cache entry — and every
// call returns that one string.
func (s *Snippet) XML() string { return s.g.XML }

// HTML renders the snippet as an escaped HTML tree with the query keywords
// highlighted; the web demo embeds this directly.
func (s *Snippet) HTML() string {
	return xmltree.RenderHTML(s.derived().Snippet.Root, s.g.Keywords)
}

// IList returns the result's Snippet Information List in rank order.
func (s *Snippet) IList() []string { return s.derived().IList.Texts() }

// Covered returns the IList items visible in the snippet, in rank order.
func (s *Snippet) Covered() []string {
	d := s.derived()
	var out []string
	for _, i := range d.Snippet.Covered {
		out = append(out, d.IList.Items[i].Text)
	}
	return out
}

// Skipped returns the IList items that did not fit the bound.
func (s *Snippet) Skipped() []string {
	d := s.derived()
	var out []string
	for _, i := range d.Snippet.Skipped {
		out = append(out, d.IList.Items[i].Text)
	}
	return out
}

// Coverage returns the fraction of IList items covered (1 for an empty
// IList).
func (s *Snippet) Coverage() float64 {
	d := s.derived()
	if d.IList.Len() == 0 {
		return 1
	}
	return float64(len(d.Snippet.Covered)) / float64(d.IList.Len())
}

// ResultKey returns the key value identifying the result ("" if none).
func (s *Snippet) ResultKey() string { return s.g.ResultKey }

// ReturnEntities returns the labels identified as the result's search
// target.
func (s *Snippet) ReturnEntities() []string { return s.derived().IList.ReturnEntities }

// Internal exposes the underlying generation artifacts for tools, its tree
// and IList present.
func (s *Snippet) Internal() *core.Generated { return s.derived() }

// Snippet generates a snippet for one search result. On a remote corpus it
// reads the result's tree, so it fails as Result.Root does; a local result —
// the whole-document one too, read through the shards — is snippeted as it
// is, its tree never built.
func (c *Corpus) Snippet(r *Result, query string, bound int, opts ...SnippetOption) (*Snippet, error) {
	tree := r.r
	if view, _ := tree.Whole(); view == nil {
		var err error
		if tree, err = r.tree(context.Background()); err != nil {
			return nil, err
		}
	}
	return newSnippet(c.generator(opts).ForResult(tree, query, bound)), nil
}

// SnippetForTree generates a snippet for a result tree produced by an
// external search engine. The tree must be over the same vocabulary as the
// corpus (labels drive classification).
func (c *Corpus) SnippetForTree(result *xmltree.Document, query string, bound int, opts ...SnippetOption) *Snippet {
	return newSnippet(c.generator(opts).ForTree(result, query, bound))
}

// generator is a local generation's own snippet generator, whose workers
// every call reuses, or with options a new one over the corpus's analysis.
func (c *Corpus) generator(opts []SnippetOption) *core.Generator {
	if d := c.data.Load(); d.rt == nil && len(opts) == 0 {
		return d.gen.Corpus.Generator()
	}
	g := core.NewGenerator(c.analysis())
	for _, o := range opts {
		o(g)
	}
	return g
}

// newSnippet wraps a snippet made outside the serving layer, rendering its
// XML as the serving layer does for a query's hits.
func newSnippet(g *core.Generated) *Snippet {
	g.XML = xmltree.XMLString(g.Snippet.Root)
	return &Snippet{g: g}
}

// Hit pairs a search result with its snippet. Both are shared and
// read-only, and on a local corpus a held Hit pins the corpus generation
// that produced it (see Result).
type Hit struct {
	Result  *Result
	Snippet *Snippet
}

// Query runs the end-to-end pipeline: search, then snippet each result
// within the bound. The serving layer computes — or replays from its cache
// — the result list and the snippets in one entry, with evaluation and
// snippet generation both scheduled on its worker pool. Cached entries hold
// hits in document order, each snippet's XML rendered once; a ranked query
// reads the same entry through the relevance order that entry computes on
// its first ranked read and keeps, so a ranked and an unranked query share
// one cache entry and a warm ranked query neither scores nor sorts. The
// returned slice and its Hit, Result and Snippet values are the caller's own;
// the trees, snippets and strings they lead to are shared.
func (c *Corpus) Query(query string, bound int, opts ...SearchOption) ([]*Hit, error) {
	return c.QueryContext(context.Background(), query, bound, opts...)
}

// QueryContext is Query honoring ctx (see SearchContext): evaluation and
// snippet generation both stop at their next checkpoint once ctx ends.
func (c *Corpus) QueryContext(ctx context.Context, query string, bound int, opts ...SearchOption) ([]*Hit, error) {
	if bound < 0 {
		return nil, fmt.Errorf("extract: negative snippet bound %d", bound)
	}
	cfg := searchConfig{opts: search.Options{DistinctAnchors: true}}
	for _, f := range opts {
		f(&cfg)
	}
	v, err := c.server().Do(ctx, query, cfg.opts, bound)
	if err != nil {
		return nil, err
	}
	var rk *serve.Ranking
	if cfg.ranked {
		if rk, err = ranking(ctx, v); err != nil {
			return nil, err
		}
	}
	// The caller's hits come in three slabs, whatever their number.
	n := len(v.Results)
	hits, hs := make([]*Hit, n), make([]Hit, n)
	rs, ss := make([]Result, n), make([]Snippet, n)
	for i := range hits {
		j, score := rk.At(i)
		rs[i] = Result{r: v.Results[j], score: score, v: v}
		ss[i] = Snippet{g: v.Snippets[j], v: v}
		hs[i] = Hit{Result: &rs[i], Snippet: &ss[i]}
		hits[i] = &hs[i]
	}
	return hits, nil
}

// XPath evaluates an XPath-subset expression (see package extract/xpath)
// against the corpus and returns the selected elements as results, ready
// for snippet generation. Text nodes in the selection are skipped. On a
// corpus of several shards the expression runs over the whole document
// built from the shards as a tree of its own, once per call — even for a
// path that never leaves one shard — and held only by the results
// returned: about 15–48 ms and 30 MB a call on the 5 MB benchmark corpus
// (search.WholeDocument), so a caller that evaluates often should hold a
// one-shard corpus. The results have no index, so their snippets read them
// node by node — to the same bytes as on one shard, more slowly.
func (c *Corpus) XPath(expr string) ([]*Result, error) {
	e, err := xpath.Compile(expr)
	if err != nil {
		return nil, err
	}
	d := c.data.Load()
	if d.rt != nil {
		return nil, ErrRemoteCorpus
	}
	// XPath needs the whole document as one tree: the lone shard's, with
	// its index, or one built from the shards, with none.
	var doc *xmltree.Document
	var ix *index.Index
	if shards := d.gen.Corpus.Shards(); len(shards) == 1 {
		doc, ix = shards[0].Doc, shards[0].Index
	} else {
		doc = search.WholeDocument(d.gen.Corpus.Whole())
	}
	var out []*Result
	for _, n := range e.SelectDoc(doc) {
		if !n.IsElement() {
			continue
		}
		r := search.FromNode(doc, n)
		r.Index = ix
		out = append(out, &Result{r: r})
	}
	return out, nil
}

// Tokenize exposes the query/index tokenizer (lowercased word tokens).
func Tokenize(s string) []string { return index.Tokenize(s) }

// HitGroup is a group of hits sharing an identical snippet.
type HitGroup struct {
	// Hit is the group's representative (first in result order).
	Hit *Hit
	// Count is the number of hits in the group.
	Count int
	// Hits are all members, in result order.
	Hits []*Hit
}

// Diversify groups hits whose snippets render identically, so a result page
// can show "N similar results" instead of repeating one snippet — the flip
// side of the paper's distinguishability goal when results genuinely are
// indistinguishable at the chosen bound.
func Diversify(hits []*Hit) []*HitGroup {
	var groups []*HitGroup
	byKey := map[string]*HitGroup{}
	for _, h := range hits {
		key := h.Snippet.Inline()
		g := byKey[key]
		if g == nil {
			g = &HitGroup{Hit: h}
			byKey[key] = g
			groups = append(groups, g)
		}
		g.Count++
		g.Hits = append(g.Hits, h)
	}
	return groups
}
