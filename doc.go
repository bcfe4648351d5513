// Package extract is a Go implementation of eXtract, the snippet generation
// system for XML keyword search of Huang, Liu and Chen (VLDB 2008).
//
// Given an XML database, a keyword query and a snippet size bound, eXtract
// produces for every query result a small snippet tree that is:
//
//   - self-contained: it names the entities the result is about,
//   - distinguishable: it carries the result's key (the key attribute value
//     of the result's return entity), like a document title,
//   - representative: it shows the result's dominant features, values whose
//     normalized frequency (dominance score) exceeds their type's average,
//   - small: its edge count never exceeds the bound.
//
// The typical flow:
//
//	corpus, err := extract.LoadFile("retailers.xml")
//	if err != nil { ... }
//	hits, err := corpus.Query("Texas apparel retailer", 10)
//	for _, h := range hits {
//		fmt.Println(h.Snippet.Render())
//	}
//
// Query evaluation (SLCA/ELCA keyword search with XSeek-style result
// construction) is built in, but snippets can also be generated for result
// trees produced elsewhere via Corpus.SnippetForTree — snippet generation
// is orthogonal to the search engine, as in the paper.
//
// # Hot-path architecture
//
// The search→snippet path works on flat integer arrays rather than
// pointers and string keys:
//
//   - xmltree assigns every node a preorder interval (Start, End int32) at
//     finalize time, so ancestor/descendant tests are two integer compares
//     (Node.Contains) and an LCA is a Parent climb until the interval
//     covers the other position. The interval is the only node identity.
//   - internal/index stores each posting list as parallel slices
//     (Ords/Nodes/Fields), keeping document-order positions in one
//     contiguous int32 array for binary searches and merge scans.
//   - internal/search computes SLCA by an interval-folding merge over the
//     packed lists with a linear stack filter, and ELCA on the same
//     candidate stream by interval counting (rank differences from
//     monotone cursors) over the candidates' ancestor chains. Probes
//     into skewed posting lists advance by galloping (exponential +
//     branch-free binary search) past the measured crossover gap, and a
//     result bound (WithMaxResults, SLCA) terminates the scan once the
//     first k answers are provable — see PERFORMANCE.md for the model
//     and the measured constants.
//   - a query result is a read-only view of the corpus document, not a
//     copy of it: its root is the anchor node itself, its document a
//     zero-copy sub-document over the anchor's preorder run
//     (xmltree.Document.Subtree), its matches sub-slices of the posting
//     lists found by binary search on the anchor's interval. Building one
//     costs the same whatever the size of its subtree; only trimmed results
//     (WithTrimmedResults) and results that crossed the wire are trees of
//     their own, and a routed result builds its tree only when it is read.
//   - internal/index also keeps every document's elements in preorder as
//     pointer-free int32 columns (position, subtree end, label symbol,
//     parent entry, value symbol), written in the pass that builds the
//     postings and derived on first use for a loaded image — part of no
//     format. internal/features computes a result's statistics as a fold
//     over the run of those columns inside the result's preorder interval
//     (tables indexed by symbol id, nothing hashed per occurrence, no node
//     read but one per distinct label); a tree that has no index has the
//     same columns filled into pooled scratch first and is folded
//     identically. internal/selector takes keyword instances from the
//     posting runs inside the result, and instances are int32 positions
//     until one is climbed from. Collectors are reused across results
//     (core.Generator pools them) and hold no node between them.
//
// Results are therefore shared and immutable. Result.Root returns a node of
// the corpus document: its Parent may lead out of the result, it must never
// be mutated, and a Result or Hit a caller holds keeps the corpus generation
// that answered it reachable, across reloads, until it is dropped. A served
// document is never mutated after its first query — reloads build new
// documents for what changed and adopt the rest as it is.
//
// # Sharded corpora
//
// Every local corpus has one shape: n >= 1 shards (internal/shard). By
// default n is 1 — the shard is the document itself and a query is one
// engine's evaluation, inline. Load with WithShards(n) (or
// FromDocumentSharded) to partition a corpus by its top-level entities into
// contiguous, size-balanced shards, each owning its own packed inverted
// index while classification and mined keys stay global. There is no separate "unsharded" mode: the API, the serving
// path, the persisted formats and the answers are the same whatever n is.
// With several shards a query is answered by one protocol, shard.Merge
// (internal/shard), whether the shards are in this process or behind a
// router. Every shard evaluates, in parallel — a shard missing a keyword
// stops after its posting-list lookups; any non-root LCA is shard-local,
// and the root's own candidacy is decided from a few bits of evidence every
// shard returns with its results. The per-shard results then merge through
// a bounded top-k merge into global document order; queries whose results
// genuinely cross shards (the root as an LCA, root-anchored results) take a
// second round composed from the same per-shard results, whose
// whole-document result is a view over the shards — nothing is copied to
// answer or snippet it — so results and snippets are always
// byte-identical to the one-shard corpus's (pinned by equivalence property
// tests).
//
// # Query-serving layer
//
// Every query runs through internal/serve, the layer that makes the online
// snippet-generation path hold up under sustained, repetitive traffic. The
// layer is corpus-agnostic: it drives any corpus through a small backend
// interface (a local corpus with one engine per shard, or a router over a
// remote shard tier), so there is a single serving path to maintain and
// every corpus gets:
//
//   - A fixed-size worker pool (WithWorkers, default GOMAXPROCS) executing
//     all fanned-out work — per-shard evaluation, snippet generation —
//     bounding that concurrency no matter how many queries are in flight;
//     the goroutine-per-shard-per-query fan-out is gone. (A one-shard
//     corpus has no evaluation fan-out: its lone engine evaluates on the
//     calling goroutine.)
//     When every worker is busy, submitters run their own tasks inline,
//     so the pool can never deadlock.
//   - A sharded, size-bounded LRU query cache (WithQueryCache, 0 disables)
//     replaying repeated queries — Corpus.Search result lists, and
//     Corpus.Query result+snippet pairs per bound — without recomputation.
//     The key is the query itself — its parsed terms in query order, the
//     evaluation options and the bound — so two spellings that parse
//     alike share an entry and a permuted query (whose IList leads with
//     the keywords in another order) does not. An entry keeps each
//     snippet's XML, rendered once, and the relevance order its first
//     ranked read computes, so ranked and unranked queries share an entry
//     and a hit renders, scores and sorts nothing. A singleflight guard
//     coalesces concurrent identical queries onto one computation.
//     Invalidation is explicit: swapping or mutating the corpus behind the
//     serving layer clears the cache atomically (serve.Server.Swap), and
//     in-flight results computed against a swapped-out corpus are returned
//     to their callers but never cached. A TinyLFU-style admission filter
//     guards inserts under eviction pressure: a one-off query can fill
//     spare capacity but never displaces an entry that is asked for more
//     often, so scans of distinct queries cannot flush the warm working
//     set (CacheStats.Rejected counts the refusals).
//
// Cached responses are byte-identical to uncached evaluation (pinned by
// property tests); BenchmarkGateServe measures the payoff as concurrent
// QPS over a Zipf-distributed workload, cold versus warm, at four shards
// and at one, and fails unless warm throughput is at least 5x cold at
// every size.
//
// # Observability
//
// Every Corpus carries a metric registry (internal/telemetry) that the
// serving layer records into on every query — an end-to-end latency
// histogram plus one per lifecycle stage entered (admission, cache probe,
// dispatch, evaluation, snippet generation), cache and failure counters —
// and that the reload and snapshot paths time as well. WriteMetrics (on a
// Corpus, or the package-level variant merging several) renders it all in
// the Prometheus text format; extractd serves that at GET /metrics.
// QueryLatencies reads the same histograms as Go values (per-stage
// p50/p90/p99/p999/max). The WithSlowQueryLog load option installs a hook
// fired for every query over a threshold with the query's QueryTrace — the
// record RecentTraces returns — plus its parsed keywords: never the raw
// query string or error text.
// Corpus.QueryCacheStats remains the plain-Go view of the cache counters
// (extractd serves it as JSON at /stats); it reads the very instruments
// the registry exports, so the two views cannot disagree. OBSERVABILITY.md
// documents every metric, the slow-query line schema, and profiling via
// extractd -pprof.
//
// # Online reload and delta ingestion
//
// Corpus.Reload swaps freshly analyzed data into a serving corpus without
// a restart and without dropping traffic: the data pointer is replaced
// atomically, the serving layer swaps backends and invalidates its cache
// in the same step, and queries already in flight finish against the data
// they started on. The new data may have any shape — a reload can change
// the shard count.
//
// Corpus.ReloadDelta is the incremental variant (internal/ingest): the
// new XML source's top-level entities are hashed with the same
// partitioner a fresh load would use, and only shards whose content hash
// moved are re-tokenized — unchanged shards are adopted from the serving
// generation, document and packed index intact, then rebound to a freshly
// computed global analysis. A fresh load and a delta are one function
// (ingest.Build) called without and with a previous generation, so the
// result is byte-identical to a fresh full load by construction (and pinned
// by property tests); anything structural — root label, DOCTYPE subset,
// shard layout — just leaves nothing to adopt. The swap semantics are
// Reload's, including the cache epoch bump.
//
// extractd exposes the path per dataset as POST /reload and, with -watch,
// as an mtime poller that reloads a file-backed dataset whenever its
// source changes, skipping (with one log line) datasets whose source file
// disappears until it returns (see cmd/extractd/README.md).
//
// # Snapshots
//
// Corpus.SaveSnapshot writes a corpus as a snapshot directory: a small
// versioned manifest carrying per-shard content hashes, a packed
// global-analysis image, and one packed image per shard (internal/ingest,
// reusing internal/persist's fuzzed codec). LoadSnapshot serves straight
// off the memory-mapped images — no XML parse, no re-analysis — and
// Corpus.ReloadSnapshot refreshes a serving corpus from a snapshot
// incrementally, decoding only the images whose content hash moved.
// Snapshot writes are themselves incremental (unchanged shard images are
// not re-encoded) and the manifest is renamed into place last; every reader
// verifies each image it opens against the hash the manifest records, so a
// directory caught mid-refresh is refused cleanly (the old generation keeps
// serving) rather than loaded as a mix of two generations. extractd
// serves snapshots directly via -data name=dir.xtsnap.
// BenchmarkGateReloadDelta measures the payoff: after a one-entity edit of
// a 100k-node corpus, an XML delta reload modestly beats a full one (both
// still parse and re-analyze), while a snapshot delta reload beats a full
// snapshot load severalfold.
//
// # Distributed serving
//
// Connect opens a corpus whose evaluation runs on a remote shard-server
// tier (internal/remote): shard servers (extractd -shard-server) each own
// a replica group's subset of a snapshot's shards (any snapshot SaveSnapshot
// wrote, one shard or many), and a stateless router
// — a serve.Backend like any other — runs the same shard.Merge as the local
// path, its rounds crossing a checksummed wire protocol. The shard servers
// snippet the results they ship with the local snippet code, on their own
// indexes, and the router keeps each result it answers with as its encoding
// until something reads the tree, so routed results, snippets and ranking
// are byte-identical to a local corpus (pinned by property tests). Replica
// groups fail over: a dead replica degrades to its peers with zero
// failed queries, and only classified errors surface. Placement is a
// pure function of the snapshot manifest (rendezvous hashing over shard
// content hashes), so routers and servers agree without a coordinator,
// and every response carries a generation fingerprint that turns reload
// windows into clean retries instead of mixed answers. Operations that
// need local documents (XPath, SaveSnapshot, delta reload) return
// ErrRemoteCorpus. See cmd/extractd/README.md for the deployment
// runbook.
//
// # Persisted indexes
//
// Corpus.SaveSnapshot / LoadSnapshot persist an analyzed corpus as a
// snapshot directory: one image per shard plus one analysis image, in one
// versioned binary format (internal/persist, XTIX version 6), under a
// manifest (XTSN) written last that records every image's hash and every
// shard's content hash. The same directory is what ReloadSnapshot re-reads, what
// Connect places shards from, and what cmd/extractd serves (-data
// name=dir.xtsnap, -shard-server, -router); `extract -savesnapshot dir`
// writes one and `extract -snapshot dir` queries it. An image is five
// sections behind a table of per-section lengths and CRC-32C checksums: a
// string table, then little-endian int32 slabs for the preorder tree arrays
// and the packed posting lists, with the DOCTYPE internal subset,
// classification and keys all serialized — round trips are lossless, a
// DTD's decisions included. The reader hashes each image against the
// manifest, memory-maps (or bulk-reads) the file, verifies every checksum,
// and only then reconstructs nodes, intervals and postings without
// re-tokenizing anything, decoding shards in parallel; loading a 100k-node
// corpus is an order of magnitude faster than building it from its XML
// (BenchmarkGatePersistLoad). An image,
// manifest or wire peer of any other version is refused with an error
// naming both versions: snapshots are rebuilt from their source, never
// migrated.
//
// # Performance gates
//
// The repository benchmark (BENCHMARK.json, benchmark/) is what a
// performance change is judged by. CI also runs four ratio gates on every
// PR, `go test -run '^$' -bench '^BenchmarkGate' -benchtime=1x .`: each
// times a subject against a yardstick in the same run, interleaved, and
// fails when the ratio breaks its bound — a query end to end against the
// frozen SLCA (search.SLCABaseline), a packed load against building from
// XML, warm against cold serving (throughput, the warm p99 against the
// cold median, and cold throughput against the frozen SLCA), and a delta
// reload against a full one. CI also runs lint (vet + staticcheck) before
// build/test, the race detector, fuzz smokes for every decoder, and the
// telemetry documentation gates (every exported internal/telemetry
// identifier commented; OBSERVABILITY.md diffed against the live
// registry).
//
// # Further reading
//
// ARCHITECTURE.md at the repository root is the layer-by-layer tour —
// xmltree up through index, search, snippet generation, shard, ingest,
// persist, serve and this facade — with request-lifecycle walkthroughs of
// a cached sharded query (annotated with the telemetry stage on the
// clock at each step), an online reload and a delta reload.
// PERFORMANCE.md is the cold-path performance model — the stage cost
// breakdown, the galloping and early-termination designs with their
// measured crossover constants, and the two instruments that measure
// them. OBSERVABILITY.md is the operator-facing metric
// reference — every
// metric's name, labels, units and what a spike means, plus the
// slow-query log schema and an SLO worked example. cmd/extractd/README.md
// documents the demo server's flags and endpoints, including snapshot
// (.xtsnap) datasets, the /metrics scrape and a curl-based triage
// runbook.
package extract
