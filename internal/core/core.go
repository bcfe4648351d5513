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
// IList beside it — reused across results, so a snippet allocates what it
// returns and little else. There are two entry points over one pipeline: the
// inspection path (ForTree*, ForResult*) returns the snippet tree, the IList
// and the result's feature statistics, each of its own; the served path
// derives all three in the worker's scratch and keeps only what it hands on —
// a local corpus's snippet its XML, edges and key (ServeResult, which
// shard.Snippets runs), a shard server's its record (AppendRecord, which
// shard.Records runs). A Generator is safe for concurrent use by multiple
// goroutines (the snippet fan-out shares one).
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
// on the served path the IList.
type worker struct {
	col *features.Collector
	il  ilist.IList
}

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
	g.workers.Put(w)
}

// Generated is a snippet with the intermediate artifacts of its derivation.
// What a result page shows — XML, Edges and ResultKey — is set on every
// snippet a backend hands over. A served snippet is those three and where its
// artifacts come from, nothing else: Snippet, IList and Stats are nil, and
// Derived makes the snippet tree and the IList the first time a reader asks —
// a local corpus's (ServeResult) by deriving them again from the result it
// was made of, a router's (Served) by decoding the record it received. A
// snippet of the inspection path (ForTree*, ForResult*) has its artifacts
// set, and is its own Derived. Read the artifacts through Derived.
type Generated struct {
	Snippet *selector.Snippet
	IList   *ilist.IList
	// Stats are the feature statistics the IList and the selection were
	// derived from, on the inspection path only. They are sized by the
	// result, not by the snippet; a served snippet's lived in per-worker
	// scratch, reused for the next result once its XML or record was
	// written. Nothing else in a Generated refers to them.
	Stats    *features.Stats
	Keywords []string
	Bound    int
	// XML is the snippet tree serialized (xmltree.XMLString): rendered by
	// ServeResult and Served on every served snippet, and filled by whoever
	// hands an inspected one to a reader.
	XML string
	// Edges is the snippet's size in edges (Snippet.Edges), and ResultKey
	// the key value identifying its result, "" if none (IList.KeyValue).
	Edges     int
	ResultKey string

	// src is set on a served snippet only.
	src *source
}

// source is what a served snippet holds instead of its artifacts: what they
// are derived from — a record and how to decode it, or the result and the
// generator that made the snippet — and the derived snippet once the first
// reader has asked.
type source struct {
	enc    string
	decode func(enc string) (*selector.Snippet, *ilist.IList)
	gen    *Generator
	result *search.Result

	mu      sync.Mutex
	derived atomic.Pointer[Generated]
}

// served is a served snippet and its source in one allocation.
type served struct {
	g   Generated
	src source
}

// Served returns the served snippet of a snippet record (internal/record)
// that a router received from a shard server (AppendRecord), in the payload
// it arrived in. It renders the XML once, from a scratch tree built into into
// (nil: a pooled one) and dropped, reads the edge count and the result key,
// and keeps the record, from which Derived decodes the snippet tree and the
// IList when a reader asks. enc must be a record a scan has validated, and
// stay as it is for as long as the snippet lives; kws and bound are the
// request's.
func Served(enc string, kws []string, bound int, into *rec.Tree) *Generated {
	xml, edges, key := rec.Shown(enc, into)
	return Deferred(enc, rec.Snippet, xml, edges, key, kws, bound)
}

// Deferred returns a snippet whose artifacts stay encoded in enc until a
// reader asks for them (Derived): decode turns enc into the snippet tree, with
// its covered and skipped items, and the IList. It must not fail — the
// caller has validated enc — and enc must stay as it is for as long as the
// snippet lives. xml, edges and key are what a result page reads (XML, Edges,
// ResultKey), kws and bound the request's. The snippet and its source are one
// allocation.
func Deferred(enc string, decode func(string) (*selector.Snippet, *ilist.IList), xml string, edges int, key string, kws []string, bound int) *Generated {
	d := &served{
		g:   Generated{XML: xml, Edges: edges, ResultKey: key, Keywords: kws, Bound: bound},
		src: source{enc: enc, decode: decode},
	}
	d.g.src = &d.src
	return &d.g
}

// Derived returns the snippet with its artifacts: g itself on the inspection
// path, and for a served snippet the one derived from its source the first
// time anything asks — one derivation, whichever of any concurrent first
// readers runs it, and the same snippet for every later reader. g itself
// never changes.
func (g *Generated) Derived() *Generated {
	s := g.src
	if s == nil {
		return g
	}
	if d := s.derived.Load(); d != nil {
		return d
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if d := s.derived.Load(); d != nil {
		return d
	}
	var sn *selector.Snippet
	var il *ilist.IList
	if s.gen != nil {
		sn, il = s.gen.rederive(s.result, g.Keywords, g.Bound)
	} else {
		sn, il = s.decode(s.enc)
	}
	d := &Generated{Snippet: sn, IList: il, Keywords: g.Keywords, Bound: g.Bound,
		XML: g.XML, Edges: g.Edges, ResultKey: g.ResultKey}
	s.derived.Store(d)
	return d
}

// Encoded reports whether g is a served snippet whose artifacts have not
// been derived yet (Derived), and the length of the record it keeps: 0 on a
// local corpus's served snippet, which keeps none, and on the inspection
// path.
func (g *Generated) Encoded() (pending bool, bytes int) {
	if g.src == nil {
		return false, 0
	}
	return g.src.derived.Load() == nil, len(g.src.enc)
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
// result, which has no index. The IList builds into il; the statistics fold
// into the collector's own scratch Stats, or, with owned, into Stats of the
// result's own.
func (g *Generator) derive(w *worker, sp *index.Whole, start, end int32, result *xmltree.Document, kws []string, bound int, il *ilist.IList, owned bool) (*features.Stats, *selector.Selection) {
	stats := w.col.CollectIn(sp, start, end, result, !owned)
	ilist.BuildInto(il, kws, g.Corpus.Cls, g.Corpus.Keys, stats)
	if g.Algorithm == AlgExact {
		return stats, selector.ExactSelection(result, il, stats, bound, g.Exact)
	}
	return stats, selector.GreedySelection(result, il, stats, bound)
}

// inspect snippets one result on the inspection path (derive): the snippet
// tree, the IList and the statistics are returned, each of its own.
func (g *Generator) inspect(sp *index.Whole, start, end int32, result *xmltree.Document, kws []string, bound int) *Generated {
	w := g.worker()
	defer g.put(w)
	il := &ilist.IList{}
	stats, sel := g.derive(w, sp, start, end, result, kws, bound, il, true)
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

// AppendRecord appends the snippet record (internal/record) of a search
// result to dst — the same snippet and IList ForResultTokens derives, in the
// bytes a shard server's responses carry — and returns the extended buffer.
// The statistics, the IList and the selection are the worker's scratch
// (derive), from which the record is written; none of them is kept, so with
// room in dst it allocates nothing.
func (g *Generator) AppendRecord(dst []byte, r *search.Result, kws []string, bound int) []byte {
	w := g.worker()
	defer g.put(w)
	sp, start, end := r.Space()
	_, sel := g.derive(w, sp, start, end, r.Doc, kws, bound, &w.il, false)
	dst = rec.AppendSnippet(dst, sel, sel.Edges, &w.il, sel.Covered, sel.Skipped)
	sel.Release()
	return dst
}

// ServeResult is a local corpus's served snippet of a search result: its XML,
// rendered from the selection through the selection's scratch tree
// (selector.Selection.Tree) by the one serializer, its edges and its key,
// beside the result and this generator, from which a reader's first Derived
// derives the snippet tree and the IList again (rederive). The statistics,
// the IList and the selection are the worker's scratch and no record is
// written, so a served snippet is two objects: its XML and itself. Only the
// snippet fan-out (shard.Snippets) calls it; inspection keeps owned
// artifacts, which its callers read.
func (g *Generator) ServeResult(r *search.Result, kws []string, bound int) *Generated {
	w := g.worker()
	defer g.put(w)
	sp, start, end := r.Space()
	_, sel := g.derive(w, sp, start, end, r.Doc, kws, bound, &w.il, false)
	d := &served{
		g:   Generated{XML: xmltree.XMLString(sel.Tree()), Edges: sel.Edges, ResultKey: w.il.KeyValue, Keywords: kws, Bound: bound},
		src: source{gen: g, result: r},
	}
	sel.Release()
	d.g.src = &d.src
	return &d.g
}

// rederive is a local served snippet's first Derived: the pipeline run again
// on its result, as inspect runs it but with the statistics in the worker's
// scratch, for the snippet tree and the IList alone. It reads the result
// through its space (search.Result.Space), so a whole-document result builds
// no copy of the document.
func (g *Generator) rederive(r *search.Result, kws []string, bound int) (*selector.Snippet, *ilist.IList) {
	w := g.worker()
	defer g.put(w)
	sp, start, end := r.Space()
	il := &ilist.IList{}
	_, sel := g.derive(w, sp, start, end, r.Doc, kws, bound, il, false)
	return sel.Snippet(), il
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
