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
// results, so a snippet allocates what it returns and little else. A Generator is safe for
// concurrent use by multiple goroutines (the snippet fan-out shares one).
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
// returns it for reuse.
func (g *Generator) collector() *features.Collector {
	if c, ok := g.collectors.Get().(*features.Collector); ok {
		return c
	}
	return features.NewCollector(g.Corpus.Cls)
}

func (g *Generator) putCollector(c *features.Collector) { g.collectors.Put(c) }

// Generated is a snippet with the intermediate artifacts of its derivation,
// for inspection, metrics and the demo UI.
type Generated struct {
	Snippet *selector.Snippet
	IList   *ilist.IList
	// Stats are the feature statistics the IList and the selection were
	// derived from. They are sized by the result, not by the snippet;
	// the serving layer drops them (nil) from the snippets it returns and
	// caches.
	Stats    *features.Stats
	Keywords []string
	Bound    int
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
	return g.generate(g.Corpus.Index, result, kws, bound)
}

// generate snippets one result; ix is the index of the document the result
// is a view of, nil when it is a tree of its own (features.CollectResult
// checks, so a handle that is not this tree's is as good as none).
func (g *Generator) generate(ix *index.Index, result *xmltree.Document, kws []string, bound int) *Generated {
	col := g.collector()
	stats := col.CollectResult(ix, result)
	g.putCollector(col)
	il := ilist.Build(result.Root, kws, g.Corpus.Cls, g.Corpus.Keys, stats)
	var sn *selector.Snippet
	switch g.Algorithm {
	case AlgExact:
		sn = selector.Exact(result, il, stats, bound, g.Exact)
	default:
		sn = selector.Greedy(result, il, g.Corpus.Cls, stats, bound)
	}
	return &Generated{
		Snippet:  sn,
		IList:    il,
		Stats:    stats,
		Keywords: kws,
		Bound:    bound,
	}
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
	return g.generate(r.Index, r.Doc, kws, bound)
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
