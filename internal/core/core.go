// Package core wires eXtract's components into the pipeline of the paper's
// Figure 4: Data Analyzer (parse + classify) and Index Builder prepare a
// corpus; per query result, the Return Entity Identifier, Query Result Key
// Identifier and Dominant Feature Identifier build the IList; the Instance
// Selector builds the snippet within the size bound.
//
// The exported facade for downstream users is the root package extract;
// cmd/ and examples/ go through that facade. This package is the assembly.
package core

import (
	"sync"
	"sync/atomic"
	"time"

	"extract/internal/classify"
	"extract/internal/dtd"
	"extract/internal/features"
	"extract/internal/ilist"
	"extract/internal/index"
	"extract/internal/keys"
	rec "extract/internal/record"
	"extract/internal/search"
	"extract/internal/selector"
	"extract/xmltree"
)

// Corpus bundles the analysis artifacts of one XML database: the parsed
// document, node classification, mined entity keys and inverted index.
type Corpus struct {
	Doc   *xmltree.Document
	Index *index.Index
	Cls   *classify.Classification
	Keys  *keys.Keys

	// Partial is the document's share of its corpus's analysis (see Merge):
	// what a later build that adopts this shard merges instead of walking it
	// again. Nil on a corpus decoded from an image until a build needs it.
	Partial *Partial

	// BuildTime records how long corpus analysis took (index, classify,
	// key mining); reported by the E8 experiment.
	BuildTime time.Duration
}

// Option configures BuildCorpus.
type Option func(*buildConfig)

type buildConfig struct {
	dtd *dtd.DTD
}

// WithDTD classifies nodes using the given DTD (combined with instance
// inference for undeclared labels).
func WithDTD(d *dtd.DTD) Option {
	return func(c *buildConfig) { c.dtd = d }
}

// Analysis bundles the corpus-level artifacts that are independent of how
// the document is physically partitioned — classification and mined keys,
// all any later stage reads. A sharded corpus merges one Analysis from its
// shards' partials (Merge) and binds every shard to it.
type Analysis struct {
	Cls  *classify.Classification
	Keys *keys.Keys
}

// Analyze runs the corpus-level analysis of a document: the Data Analyzer
// stage without the index build — classification (one inference walk, with
// d's declarations taking precedence when d is non-nil), then key mining. It
// is the merge of the document's one partial (see Merge).
func Analyze(doc *xmltree.Document, d *dtd.DTD) *Analysis {
	return Merge([]*Corpus{{Doc: doc}}, d)
}

// BuildCorpus analyzes a parsed document: the Data Analyzer and Index
// Builder stages of the paper's architecture.
func BuildCorpus(doc *xmltree.Document, opts ...Option) *Corpus {
	var cfg buildConfig
	for _, o := range opts {
		o(&cfg)
	}
	start := time.Now()
	a := Analyze(doc, cfg.dtd)
	c := &Corpus{
		Doc:   doc,
		Index: index.Build(doc),
		Cls:   a.Cls,
		Keys:  a.Keys,
	}
	c.BuildTime = time.Since(start)
	return c
}

// Engine returns a search engine over the corpus, reusing its index and
// classification.
func (c *Corpus) Engine(opts search.Options) *search.Engine {
	return search.NewEngine(c.Doc, c.Index, c.Cls, opts)
}

// Algorithm selects the instance-selection strategy.
type Algorithm uint8

const (
	// AlgGreedy is the paper's practical algorithm (default): IList rank
	// order, cheapest instance each.
	AlgGreedy Algorithm = iota
	// AlgExact is branch-and-bound maximization; small results only.
	AlgExact
)

// Generator produces snippets for query results over one corpus. It keeps
// a pool of workers — a feature collector, whose scratch is the tables and
// logs of the one fold a snippet makes over its result's elements, with an
// IList and a record buffer beside it — reused across results, so a snippet
// allocates what it returns and little else. There are two entry points
// over one pipeline: the inspection path (ForTree*, ForResult*) returns the
// snippet tree, the IList and the result's feature statistics, each of its
// own; the served path (ServeResult, which shard.Snippets runs, and Record,
// which a shard server runs) derives all three in the worker's scratch and
// keeps only the snippet's record. A Generator is safe for concurrent use by
// multiple goroutines (the snippet fan-out shares one).
type Generator struct {
	Corpus *Corpus
	// Algorithm picks greedy (default) or exact selection.
	Algorithm Algorithm
	// Exact configures AlgExact.
	Exact selector.ExactConfig

	workers sync.Pool
}

// NewGenerator returns a greedy generator for the corpus.
func NewGenerator(c *Corpus) *Generator { return &Generator{Corpus: c} }

// worker is one snippet's pooled working state: the feature collector, and
// on the served path the IList and the record being written.
type worker struct {
	col *features.Collector
	il  ilist.IList
	rec []byte
}

// keepRecord bounds the record buffer a pooled worker keeps: past it, a
// record's buffer is garbage with it.
const keepRecord = 1 << 20

// worker borrows a worker for the corpus; put empties its scratch — the
// statistics, the IList's strings — and returns it for reuse.
func (g *Generator) worker() *worker {
	if w, ok := g.workers.Get().(*worker); ok {
		return w
	}
	return &worker{col: features.NewCollector(g.Corpus.Cls)}
}

func (g *Generator) put(w *worker) {
	w.col.ReleaseScratch()
	w.il.Reset()
	if cap(w.rec) > keepRecord {
		w.rec = nil
	}
	g.workers.Put(w)
}

// Generated is a snippet with the intermediate artifacts of its derivation.
// What a result page shows — XML, Edges and ResultKey — is set on every
// snippet a backend hands over. A served snippet — every backend's, made by
// Served from the record a local corpus wrote (ServeResult) or a router
// received — is its record and nothing else: Snippet,
// IList and Stats are nil, and Derived decodes the snippet tree and the IList
// from the record the first time a reader asks. A snippet of the inspection
// path (ForTree*, ForResult*) has its artifacts set, and is its own Derived.
// Read the artifacts through Derived.
type Generated struct {
	Snippet *selector.Snippet
	IList   *ilist.IList
	// Stats are the feature statistics the IList and the selection were
	// derived from, on the inspection path only. They are sized by the
	// result, not by the snippet; a served snippet's lived in per-worker
	// scratch, reused for the next result once its record was written.
	// Nothing else in a Generated refers to them.
	Stats    *features.Stats
	Keywords []string
	Bound    int
	// XML is the snippet tree serialized (xmltree.XMLString): rendered from
	// the record by Served on every served snippet, and filled by whoever
	// hands an inspected one to a reader.
	XML string
	// Edges is the snippet's size in edges (Snippet.Edges), and ResultKey
	// the key value identifying its result, "" if none (IList.KeyValue).
	Edges     int
	ResultKey string

	// record is set on a served snippet only.
	record *record
}

// record is what a served snippet holds instead of its artifacts: the
// encoding they are decoded from, how, and the decoded snippet once the
// first reader has asked.
type record struct {
	enc    string
	decode func(enc string) (*selector.Snippet, *ilist.IList)

	mu      sync.Mutex
	derived atomic.Pointer[Generated]
}

// Served returns the served snippet of a snippet record (internal/record),
// on every backend: a local corpus's and a shard server's generator write
// one (Record), a router keeps the one that arrived, in the payload it
// arrived in. It renders the XML once, from a scratch tree built into into
// (nil: a pooled one) and dropped, reads the edge count and the result key,
// and keeps the record, from which Derived decodes the snippet tree and the
// IList when a reader asks. enc must be a record a scan has validated or a
// generator has written, and stay as it is for as long as the snippet
// lives; kws and bound are the request's.
func Served(enc string, kws []string, bound int, into *rec.Tree) *Generated {
	xml, edges, key := rec.Shown(enc, into)
	return Deferred(enc, rec.Snippet, xml, edges, key, kws, bound)
}

// Deferred returns a snippet whose artifacts stay encoded in enc until a
// reader asks for them (Derived): decode turns enc into the snippet tree, with
// its covered and skipped items, and the IList. It must not fail — the
// caller has validated enc — and enc must stay as it is for as long as the
// snippet lives. xml, edges and key are what a result page reads (XML, Edges,
// ResultKey), kws and bound the request's. The snippet and its record are one
// allocation.
func Deferred(enc string, decode func(string) (*selector.Snippet, *ilist.IList), xml string, edges int, key string, kws []string, bound int) *Generated {
	d := &struct {
		g Generated
		r record
	}{
		g: Generated{XML: xml, Edges: edges, ResultKey: key, Keywords: kws, Bound: bound},
		r: record{enc: enc, decode: decode},
	}
	d.g.record = &d.r
	return &d.g
}

// Derived returns the snippet with its artifacts: g itself on the inspection
// path, and for a served snippet the one decoded from its record the first
// time anything asks — one decode, whichever of any concurrent first readers
// runs it, and the same snippet for every later reader. g itself never
// changes.
func (g *Generated) Derived() *Generated {
	r := g.record
	if r == nil {
		return g
	}
	if d := r.derived.Load(); d != nil {
		return d
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if d := r.derived.Load(); d != nil {
		return d
	}
	sn, il := r.decode(r.enc)
	d := &Generated{Snippet: sn, IList: il, Keywords: g.Keywords, Bound: g.Bound,
		XML: g.XML, Edges: g.Edges, ResultKey: g.ResultKey}
	r.derived.Store(d)
	return d
}

// Encoded reports whether g is a served snippet whose artifacts have not
// been decoded yet (Derived), and the length of the record it keeps (0 on
// the inspection path).
func (g *Generated) Encoded() (pending bool, bytes int) {
	if g.record == nil {
		return false, 0
	}
	return g.record.derived.Load() == nil, len(g.record.enc)
}

// ForTree generates a snippet for a query-result tree. The keywords are the
// tokenized query; bound is the maximum number of snippet edges.
func (g *Generator) ForTree(result *xmltree.Document, query string, bound int) *Generated {
	return g.ForTreeTokens(result, index.Tokenize(query), bound)
}

// ForTreeTokens is ForTree with the query already tokenized, so a fan-out
// over many results of one query tokenizes it once. A result that is a view
// of the generator's own corpus document is read in that corpus index's
// space (index.Index.Interval); any other tree is read as it is.
func (g *Generator) ForTreeTokens(result *xmltree.Document, kws []string, bound int) *Generated {
	sp, start, end := g.Corpus.Index.Interval(result)
	return g.inspect(sp, start, end, result, kws, bound)
}

// derive runs the pipeline on one result with w up to the selection, which
// the caller reads and releases. The result is the interval [start, end] of
// the position space sp (search.Result.Space), or, when sp is nil, the tree
// result, which has no index. A served result's statistics fold into the
// collector's own Stats and its IList builds into w's; otherwise both are
// the result's own.
func (g *Generator) derive(w *worker, sp *index.Whole, start, end int32, result *xmltree.Document, kws []string, bound int, served bool) (*features.Stats, *ilist.IList, *selector.Selection) {
	stats, il := w.col.CollectIn(sp, start, end, result, served), &w.il
	if !served {
		il = &ilist.IList{}
	}
	ilist.BuildInto(il, kws, g.Corpus.Cls, g.Corpus.Keys, stats)
	if g.Algorithm == AlgExact {
		return stats, il, selector.ExactSelection(result, il, stats, bound, g.Exact)
	}
	return stats, il, selector.GreedySelection(result, il, stats, bound)
}

// inspect snippets one result on the inspection path (derive): the snippet
// tree, the IList and the statistics are returned, each of its own.
func (g *Generator) inspect(sp *index.Whole, start, end int32, result *xmltree.Document, kws []string, bound int) *Generated {
	w := g.worker()
	defer g.put(w)
	stats, il, sel := g.derive(w, sp, start, end, result, kws, bound, false)
	sn := sel.Snippet()
	return &Generated{Snippet: sn, IList: il, Stats: stats, Keywords: kws, Bound: bound, Edges: sn.Edges, ResultKey: il.KeyValue}
}

// ForResult generates a snippet for a search result.
func (g *Generator) ForResult(r *search.Result, query string, bound int) *Generated {
	return g.ForResultTokens(r, index.Tokenize(query), bound)
}

// ForResultTokens generates a snippet for a search result with the query
// already tokenized. A result brings the space it is read in
// (search.Result.Space), so one generator over a corpus's shared analysis
// serves the results of every shard and the whole document's.
func (g *Generator) ForResultTokens(r *search.Result, kws []string, bound int) *Generated {
	sp, start, end := r.Space()
	return g.inspect(sp, start, end, r.Doc, kws, bound)
}

// Record writes the snippet of a search result that is sent or served rather
// than inspected, and returns its record (internal/record) — the same
// snippet and IList ForResultTokens derives, in the bytes a snippets response
// carries. The statistics, the IList and the selection are the worker's
// scratch (derive), from which the record is written; none of them is kept,
// so a record allocates itself and nothing sized by the result, its IList or
// its snippet tree. A shard server sends it as it is.
func (g *Generator) Record(r *search.Result, kws []string, bound int) string {
	w := g.worker()
	defer g.put(w)
	sp, start, end := r.Space()
	_, il, sel := g.derive(w, sp, start, end, r.Doc, kws, bound, true)
	w.rec = rec.AppendSnippet(w.rec[:0], sel, sel.Edges, il, sel.Covered, sel.Skipped)
	sel.Release()
	return string(w.rec)
}

// ServeResult is the served snippet of a search result (Served over its
// Record): its XML, edges and key, and its record, from which a reader's
// first Derived decodes the snippet tree and the IList. Only the snippet
// fan-out (shard.Snippets) calls it; inspection keeps owned artifacts, which
// its callers read.
func (g *Generator) ServeResult(r *search.Result, kws []string, bound int) *Generated {
	return Served(g.Record(r, kws, bound), kws, bound, nil)
}

// SnippetedResult pairs a search result with its generated snippet.
type SnippetedResult struct {
	Result *search.Result
	*Generated
}

// Pipeline runs the full demo flow: evaluate the keyword query, then
// generate a snippet for every result, in result order, on the calling
// goroutine. The served path fans snippets out with shard.Snippets.
func Pipeline(c *Corpus, query string, bound int, searchOpts search.Options) ([]*SnippetedResult, error) {
	results, err := c.Engine(searchOpts).Search(query)
	if err != nil {
		return nil, err
	}
	gen := NewGenerator(c)
	kws := index.Tokenize(query)
	out := make([]*SnippetedResult, len(results))
	for i, r := range results {
		out[i] = &SnippetedResult{Result: r, Generated: gen.ForResultTokens(r, kws, bound)}
	}
	return out, nil
}
