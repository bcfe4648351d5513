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
// a pool of feature collectors, whose scratch — the tables and logs of the
// one fold a snippet makes over its result's elements — is reused across
// results, so a snippet allocates what it returns and little else. There are
// two entry points over one body (generate): the inspection path
// (ForTree*, ForResult*) returns the result's feature statistics with the
// snippet, as a Stats of their own; the served path (ServeResult, which
// shard.Snippets runs) returns none, and folds them into the borrowed
// collector's reusable Stats instead. A Generator is safe for concurrent use
// by multiple goroutines (the snippet fan-out shares one).
type Generator struct {
	Corpus *Corpus
	// Algorithm picks greedy (default) or exact selection.
	Algorithm Algorithm
	// Exact configures AlgExact.
	Exact selector.ExactConfig

	collectors sync.Pool
}

// NewGenerator returns a greedy generator for the corpus.
func NewGenerator(c *Corpus) *Generator { return &Generator{Corpus: c} }

// collector borrows a feature collector for the corpus; putCollector
// releases its scratch Stats and returns it for reuse.
func (g *Generator) collector() *features.Collector {
	if c, ok := g.collectors.Get().(*features.Collector); ok {
		return c
	}
	return features.NewCollector(g.Corpus.Cls)
}

func (g *Generator) putCollector(c *features.Collector) {
	c.ReleaseScratch()
	g.collectors.Put(c)
}

// Generated is a snippet with the intermediate artifacts of its derivation,
// for inspection, metrics and the demo UI. What a result page shows — XML,
// Edges and ResultKey — is set on every snippet a backend hands over. The
// artifacts — Snippet, IList — are set on a snippet made here; a snippet that
// arrived as a wire record (Deferred) keeps the record instead, and has them
// nil until Derived decodes them. Read them through Derived.
type Generated struct {
	Snippet *selector.Snippet
	IList   *ilist.IList
	// Stats are the feature statistics the IList and the selection were
	// derived from, on the inspection path (ForTree*, ForResult*). They are
	// sized by the result, not by the snippet, so nil on a served snippet
	// (ServeResult): its statistics lived in per-worker scratch, which is
	// reused for the next result once the snippet is made. Nothing else in
	// a Generated refers to them.
	Stats    *features.Stats
	Keywords []string
	Bound    int
	// XML is the snippet tree serialized (xmltree.XMLString), filled by
	// whoever hands the snippet to a reader — a backend's answer, once per
	// computed answer — and empty as the generator returns it.
	XML string
	// Edges is the snippet's size in edges (Snippet.Edges), and ResultKey
	// the key value identifying its result, "" if none (IList.KeyValue).
	Edges     int
	ResultKey string

	// record is set on a deferred snippet only.
	record *record
}

// record is what a deferred snippet holds instead of its artifacts: the
// encoding they are decoded from, how, and the decoded snippet once the
// first reader has asked.
type record struct {
	enc    string
	decode func(enc string) (*selector.Snippet, *ilist.IList)

	mu      sync.Mutex
	derived atomic.Pointer[Generated]
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

// Derived returns the snippet with its artifacts: g itself when it was made
// here, and for a deferred snippet the one decoded from its record the first
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

// Encoded reports whether g is a deferred snippet whose artifacts have not
// been decoded yet (Derived), and the length of the record it keeps.
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
// of the generator's own corpus document is snippeted from that corpus's
// index; any other tree is read.
func (g *Generator) ForTreeTokens(result *xmltree.Document, kws []string, bound int) *Generated {
	return g.generate(g.Corpus.Index, result, nil, kws, bound, false)
}

// generate snippets one result; ix is the index of the document the result
// is a view of, nil when it is a tree of its own (features.CollectResult
// checks, so a handle that is not this tree's is as good as none). A served
// snippet's statistics are folded into the borrowed collector's scratch
// Stats, which stays borrowed until the selection has read it and is not
// returned; otherwise they are a Stats of their own, returned with the
// snippet. A whole-document result of a sharded corpus (search.Whole) comes
// as its view instead of a tree: its statistics are the view's, folded once
// and shared (features.Collector.Whole), and the selection reads the shards
// through them.
func (g *Generator) generate(ix *index.Index, result *xmltree.Document, whole *index.Whole, kws []string, bound int, served bool) *Generated {
	col := g.collector()
	defer g.putCollector(col)
	var stats *features.Stats
	var root *xmltree.Node
	switch {
	case whole != nil:
		stats, root = col.Whole(whole), whole.Node(0)
	case served:
		stats, root = col.CollectScratch(ix, result), result.Root
	default:
		stats, root = col.CollectResult(ix, result), result.Root
	}
	il := ilist.Build(root, kws, g.Corpus.Cls, g.Corpus.Keys, stats)
	var sn *selector.Snippet
	switch g.Algorithm {
	case AlgExact:
		sn = selector.Exact(result, il, stats, bound, g.Exact)
	default:
		sn = selector.Greedy(result, il, g.Corpus.Cls, stats, bound)
	}
	out := &Generated{Snippet: sn, IList: il, Keywords: kws, Bound: bound, Edges: sn.Edges, ResultKey: il.KeyValue}
	if !served {
		out.Stats = stats
	}
	return out
}

// ForResult generates a snippet for a search result.
func (g *Generator) ForResult(r *search.Result, query string, bound int) *Generated {
	return g.ForResultTokens(r, index.Tokenize(query), bound)
}

// ForResultTokens generates a snippet for a search result with the query
// already tokenized. A view result brings the index it is a view of
// (search.Result.Index), so one generator over a corpus's shared analysis
// serves the results of every shard.
func (g *Generator) ForResultTokens(r *search.Result, kws []string, bound int) *Generated {
	return g.forResult(r, kws, bound, false)
}

func (g *Generator) forResult(r *search.Result, kws []string, bound int, served bool) *Generated {
	if w, _ := r.Whole(); w != nil {
		return g.generate(nil, nil, w, kws, bound, served)
	}
	return g.generate(r.Index, r.Doc, nil, kws, bound, served)
}

// ServeResult is ForResultTokens for a snippet that is sent or cached rather
// than inspected: the same snippet and IList, with nil Stats. The
// statistics are folded into the borrowed collector's reusable Stats
// (features.Collector.CollectScratch) and the collector is held until the
// selection ends, so serving a snippet allocates what the snippet returns —
// nothing sized by the result. Only the snippet fan-out (shard.Snippets)
// calls it; inspection keeps owned Stats, which its callers read.
func (g *Generator) ServeResult(r *search.Result, kws []string, bound int) *Generated {
	return g.forResult(r, kws, bound, true)
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
