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
// returns and little else. Every snippet runs one pipeline (derive) with the
// result's feature statistics in the worker's scratch, and keeps only what
// its caller reads: ForTree and ForResult the snippet tree and the IList; a
// local corpus's served snippet its XML, edges and key (ServeResult, which
// shard.Snippets runs); a shard server's its record (AppendRecord, which
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
// the IList and the XML (render) of a snippet that keeps neither.
type worker struct {
	col *features.Collector
	il  ilist.IList
	xml []byte
}

// maxKeptXML bounds the XML buffer a pooled worker keeps.
const maxKeptXML = 64 << 10

// worker borrows a worker for the corpus; put empties its scratch — the
// statistics, the IList's strings, the XML — and returns it for reuse.
func (g *Generator) worker() *worker {
	if w, ok := g.workers.Get().(*worker); ok {
		return w
	}
	return &worker{col: features.NewCollector(g.Corpus.Cls)}
}

func (g *Generator) put(w *worker) {
	w.col.ReleaseScratch()
	w.il.Reset()
	if cap(w.xml) > maxKeptXML {
		w.xml = nil
	}
	g.workers.Put(w)
}

// Generated is a snippet with the intermediate artifacts of its derivation.
// What a result page shows — XML, Edges and ResultKey — is set on every
// snippet a backend hands over. A served snippet is those three and where its
// artifacts come from, nothing else: Snippet and IList are nil, and Derived
// makes them the first time a reader asks — a local corpus's (ServeResult)
// by deriving them again from the result it was made of, a router's
// (ServedSnippets.Serve) by decoding the record it received. A snippet of
// ForTree or ForResult has its artifacts set, and is its own Derived. Read
// the artifacts through Derived. No snippet keeps the feature statistics it
// was derived from: they live in a worker's scratch, reused for the next
// result.
type Generated struct {
	Snippet  *selector.Snippet
	IList    *ilist.IList
	Keywords []string
	Bound    int
	// XML is the snippet tree serialized (xmltree.XMLString): rendered by
	// ServeResult, and by a shard server into the record a router's
	// ServedSnippets.Serve reads it from, on every served snippet, and filled
	// by whoever hands one of ForTree or ForResult to a reader.
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

// ServedSnippets are the served snippets of one routed answer, cut from one
// slab (NewServedSnippets): slot i is filled by Serve.
type ServedSnippets []served

// NewServedSnippets returns n unfilled slots, one allocation for them all.
func NewServedSnippets(n int) ServedSnippets { return make(ServedSnippets, n) }

// Serve fills slot i with the served snippet of a snippet record
// (internal/record) that a router received from a shard server
// (AppendRecord), in the payload it arrived in, and returns it: its XML, edge
// count and result key are read out of the record's head
// (record.Reader.Head), nothing rendered and nothing allocated, and the
// record is kept, from which Derived decodes the snippet tree and the IList
// when a reader asks. enc must be a record a scan has validated, and stay as
// it is for as long as the snippet lives; kws and bound are the request's.
func (s ServedSnippets) Serve(i int, enc string, kws []string, bound int) *Generated {
	v := rec.Reader{Text: enc}
	xml, edges, key := v.Head()
	return s[i].set(enc, rec.Snippet, xml, edges, key, kws, bound)
}

// set makes d a snippet whose artifacts stay encoded in enc until a reader
// asks for them (Derived): decode turns enc into the snippet tree, with its
// covered and skipped items, and the IList. It must not fail — the caller
// has validated enc — and enc must stay as it is for as long as the snippet
// lives. xml, edges and key are what a result page reads (XML, Edges,
// ResultKey), kws and bound the request's.
func (d *served) set(enc string, decode func(string) (*selector.Snippet, *ilist.IList), xml string, edges int, key string, kws []string, bound int) *Generated {
	d.g = Generated{XML: xml, Edges: edges, ResultKey: key, Keywords: kws, Bound: bound}
	d.src.enc, d.src.decode = enc, decode
	d.g.src = &d.src
	return &d.g
}

// Derived returns the snippet with its artifacts: g itself for a snippet of
// ForTree or ForResult, and for a served snippet the one derived from its
// source the first time anything asks — one derivation, whichever of any
// concurrent first readers runs it, and the same snippet for every later
// reader. g itself never changes.
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
	var d *Generated
	if s.gen != nil {
		d = s.gen.ofResult(s.result, g.Keywords, g.Bound)
	} else {
		sn, il := s.decode(s.enc)
		d = &Generated{Snippet: sn, IList: il, Keywords: g.Keywords, Bound: g.Bound, Edges: g.Edges, ResultKey: g.ResultKey}
	}
	d.XML = g.XML
	s.derived.Store(d)
	return d
}

// Encoded reports whether g is a served snippet whose artifacts have not
// been derived yet (Derived), and the length of the record it keeps: 0 on a
// local corpus's served snippet, which keeps none, and on a snippet of
// ForTree or ForResult.
func (g *Generated) Encoded() (pending bool, bytes int) {
	if g.src == nil {
		return false, 0
	}
	return g.src.derived.Load() == nil, len(g.src.enc)
}

// ForTree generates a snippet for a query-result tree. The keywords are the
// query's (search.Query.Keywords); bound is the maximum number of snippet
// edges. A result that is a view of the generator's own corpus document is
// read in that corpus index's space (index.Index.Interval); any other tree
// is read as it is.
func (g *Generator) ForTree(result *xmltree.Document, query string, bound int) *Generated {
	sp, start, end := g.Corpus.Index.Interval(result)
	return g.snippet(sp, start, end, result, search.Parse(query).Keywords, bound)
}

// ForResult generates a snippet for a search result. A result brings the
// space it is read in (search.Result.Space), so one generator over a
// corpus's shared analysis serves the results of every shard and the whole
// document's, and a whole-document result builds no copy of the document.
func (g *Generator) ForResult(r *search.Result, query string, bound int) *Generated {
	return g.ofResult(r, search.Parse(query).Keywords, bound)
}

// ofResult is ForResult with the query's keywords: what Pipeline runs per
// result, and a local served snippet's first Derived.
func (g *Generator) ofResult(r *search.Result, kws []string, bound int) *Generated {
	sp, start, end := r.Space()
	return g.snippet(sp, start, end, r.Doc, kws, bound)
}

// snippet runs the pipeline on one result (derive) for a snippet tree and an
// IList of their own.
func (g *Generator) snippet(sp *index.Whole, start, end int32, result *xmltree.Document, kws []string, bound int) *Generated {
	w := g.worker()
	defer g.put(w)
	il := &ilist.IList{}
	sn := g.derive(w, sp, start, end, result, kws, bound, il).Snippet()
	return &Generated{Snippet: sn, IList: il, Keywords: kws, Bound: bound, Edges: sn.Edges, ResultKey: il.KeyValue}
}

// derive runs the pipeline on one result with w up to the selection, which
// the caller reads and releases. The result is the interval [start, end] of
// the position space sp (search.Result.Space), or, when sp is nil, the tree
// result, which has no index. The statistics fold into the collector's
// scratch (features.Collector.CollectIn) and the IList builds into il.
func (g *Generator) derive(w *worker, sp *index.Whole, start, end int32, result *xmltree.Document, kws []string, bound int, il *ilist.IList) *selector.Selection {
	stats := w.col.CollectIn(sp, start, end, result)
	ilist.BuildInto(il, kws, g.Corpus.Cls, g.Corpus.Keys, stats)
	if g.Algorithm == AlgExact {
		return selector.ExactSelection(result, il, stats, bound, g.Exact)
	}
	return selector.GreedySelection(result, il, stats, bound)
}

// render runs the pipeline on a search result with w (derive) and renders the
// snippet's XML from the selection's scratch tree (selector.Selection.Tree)
// into w.xml: the one derive-then-render step of a local corpus's served
// snippet (ServeResult) and a shard server's record (AppendRecord). The
// caller then releases the selection.
func (g *Generator) render(w *worker, r *search.Result, kws []string, bound int) *selector.Selection {
	sp, start, end := r.Space()
	sel := g.derive(w, sp, start, end, r.Doc, kws, bound, &w.il)
	w.xml = xmltree.AppendXML(w.xml[:0], sel.Tree())
	return sel
}

// AppendRecord appends the snippet record (internal/record) of a search
// result to dst — the XML ServeResult renders, and the same snippet and IList
// ForResult derives, in the bytes a shard server's responses carry — and
// returns the extended buffer. The statistics, the IList, the selection and
// the XML are the worker's scratch (render), from which the record is
// written; none of them is kept, so with room in dst it allocates nothing.
func (g *Generator) AppendRecord(dst []byte, r *search.Result, kws []string, bound int) []byte {
	w := g.worker()
	defer g.put(w)
	sel := g.render(w, r, kws, bound)
	dst = rec.AppendSnippet(dst, w.xml, sel, sel.Edges, &w.il, sel.Covered, sel.Skipped)
	sel.Release()
	return dst
}

// ServeResult is a local corpus's served snippet of a search result: its XML
// (render), its edges and its key, beside the result and this generator, from
// which a reader's first Derived derives the snippet tree and the IList
// again, as ForResult does. The statistics, the IList and the selection are
// the worker's scratch and no record is written, so a served snippet is two
// objects: its XML and itself. Only the snippet fan-out (shard.Snippets)
// calls it.
func (g *Generator) ServeResult(r *search.Result, kws []string, bound int) *Generated {
	w := g.worker()
	defer g.put(w)
	sel := g.render(w, r, kws, bound)
	d := &served{
		g:   Generated{XML: string(w.xml), Edges: sel.Edges, ResultKey: w.il.KeyValue, Keywords: kws, Bound: bound},
		src: source{gen: g, result: r},
	}
	sel.Release()
	d.g.src = &d.src
	return &d.g
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
	q := search.Parse(query)
	results, err := c.Engine(searchOpts).Search(q)
	if err != nil {
		return nil, err
	}
	gen := NewGenerator(c)
	out := make([]*SnippetedResult, len(results))
	for i, r := range results {
		out[i] = &SnippetedResult{Result: r, Generated: gen.ofResult(r, q.Keywords, bound)}
	}
	return out, nil
}
