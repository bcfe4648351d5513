package shard

import (
	"context"
	"sync"

	"extract/internal/classify"
	"extract/internal/core"
	"extract/internal/dtd"
	"extract/internal/index"
	"extract/internal/keys"
	"extract/internal/rank"
	"extract/xmltree"
)

// Corpus is an analyzed corpus of n >= 1 shards — the one shape every local
// corpus has. Every shard owns its own document fragment and packed inverted
// index, while classification and mined keys are global — computed on the
// whole document before partitioning — so per-shard evaluation makes exactly
// the decisions an engine over the whole document would. A one-shard corpus
// holds the document itself, unmoved, and evaluates inline on its lone engine
// (see the len(shards) == 1 branches).
type Corpus struct {
	shards []*core.Corpus

	cls    *classify.Classification
	keys   *keys.Keys
	subset string

	rootLabel    string
	rootFromAttr bool

	statsOnce     sync.Once
	totalNodes    int
	totalElements int
	maxDepth      int

	keywordsOnce     sync.Once
	distinctKeywords int

	wholeOnce sync.Once
	whole     *index.Whole

	// gen snippets this corpus's results (Answer, and a shard server's
	// shipped results) from the shared analysis.
	gen *core.Generator
}

// Option configures Build.
type Option func(*buildConfig)

type buildConfig struct {
	dtd *dtd.DTD
}

// WithDTD classifies nodes using the given DTD (combined with instance
// inference for undeclared labels); nil infers everything from the data.
func WithDTD(d *dtd.DTD) Option {
	return func(c *buildConfig) { c.dtd = d }
}

// Build analyzes doc and partitions it into at most n shards, each with its
// own packed inverted index: BuildFrom with nothing to adopt. When doc
// partitions into two blocks or more, its top-level entities are moved into
// the shard documents and doc is invalid afterwards; a one-block build serves
// doc itself, unmoved, so the caller must not mutate it.
func Build(doc *xmltree.Document, n int, opts ...Option) *Corpus {
	bl := BlocksOf(doc)
	bl.Cuts = Cuts(Weights(bl.Entities), n)
	return BuildFrom(&bl, nil, opts...)
}

// BuildFrom is the one builder of a corpus: per block of bl, adopt or build,
// then merge the analysis and assemble. adopt[b], when present and non-nil,
// is a shard of an earlier generation whose entities equal block b's
// (internal/ingest decides that by content hash): its document, packed index
// and analysis partial are taken as they are, and block b's entities are
// never read. Every other block is built into a document of its own — its
// top-level entities are moved out of the document bl was cut from, which is
// invalid afterwards when there are two blocks or more; one block in all is
// the whole document itself, unmoved — then indexed beside its
// share of the analysis: the index builds run alongside the walks and the
// merge, since neither reads the other's output, each side on up to
// GOMAXPROCS goroutines — so a delta that rebuilds one shard keeps two
// cores busy. The analysis is the merge of every shard's partial
// (core.Merge), so the work is proportional to what changed. A fresh build
// and a delta are this one body, so they cannot disagree.
func BuildFrom(bl *Blocks, adopt []*core.Corpus, opts ...Option) *Corpus {
	var cfg buildConfig
	for _, o := range opts {
		o(&cfg)
	}
	shards := make([]*core.Corpus, len(bl.Cuts)-1)
	var built []int
	for b := range shards {
		if b < len(adopt) && adopt[b] != nil {
			a := adopt[b]
			shards[b] = &core.Corpus{Doc: a.Doc, Index: a.Index, Partial: a.Partial}
		} else {
			shards[b] = &core.Corpus{}
			built = append(built, b)
		}
	}
	core.Each(len(built), func(i int) { shards[built[i]].Doc = bl.block(built[i]) })
	indexes := make([]*index.Index, len(built))
	indexed := make(chan struct{})
	go func() {
		core.Each(len(built), func(i int) { indexes[i] = index.Build(shards[built[i]].Doc) })
		close(indexed)
	}()
	a := core.Merge(shards, cfg.dtd) // infers the built shards' partials
	<-indexed
	for i, b := range built {
		shards[b].Index = indexes[i]
	}
	return Assemble(shards, a, bl.Label, bl.FromAttr, bl.Subset)
}

// Assemble builds a Corpus from per-shard corpora and a global analysis —
// what BuildFrom and a snapshot load both end in, their shards a mix of
// freshly built corpora, corpora adopted (document and packed index intact)
// from a previous generation, and corpora decoded from per-shard packed
// images. Every shard is rebound to the given analysis artifacts, so the
// assembled corpus classifies and anchors exactly as if it had been built
// in one piece. The shards slice is adopted, not copied.
func Assemble(shards []*core.Corpus, a *core.Analysis, rootLabel string, rootFromAttr bool, subset string) *Corpus {
	sc := &Corpus{
		shards:       shards,
		cls:          a.Cls,
		keys:         a.Keys,
		subset:       subset,
		rootLabel:    rootLabel,
		rootFromAttr: rootFromAttr,
	}
	for _, s := range shards {
		s.Cls, s.Keys = sc.cls, sc.keys
	}
	sc.gen = core.NewGenerator(sc.Analysis())
	return sc
}

// Root returns the label and attribute-origin flag of the original
// document's root element, which every shard root copies.
func (sc *Corpus) Root() (label string, fromAttr bool) {
	return sc.rootLabel, sc.rootFromAttr
}

// InternalSubset returns the DOCTYPE internal subset of the original
// document ("" if none).
func (sc *Corpus) InternalSubset() string { return sc.subset }

// NumShards returns the number of shards.
func (sc *Corpus) NumShards() int { return len(sc.shards) }

// Shards exposes the per-shard corpora (shared analysis artifacts, private
// documents and indexes). The slice must not be modified.
func (sc *Corpus) Shards() []*core.Corpus { return sc.shards }

// Classification returns the global node classification.
func (sc *Corpus) Classification() *classify.Classification { return sc.cls }

// Keys returns the globally mined entity keys.
func (sc *Corpus) Keys() *keys.Keys { return sc.keys }

// Analysis returns a document-less core.Corpus carrying only the shared
// analysis artifacts. Snippet generation needs classification and keys, not
// a document, so one generator over this corpus serves results from every
// shard.
func (sc *Corpus) Analysis() *core.Corpus {
	return &core.Corpus{Cls: sc.cls, Keys: sc.keys}
}

// Generator returns the greedy snippet generator over the corpus's analysis,
// one per generation: every view result of any shard brings its own index,
// and a whole-document result its view over the shards (Whole), so this one
// generator snippets them all.
func (sc *Corpus) Generator() *core.Generator { return sc.gen }

// computeStats fills the lazily aggregated corpus-wide counters, once per
// generation. A shard's figures are memoized on its document
// (xmltree.Document.Stats), so only a shard document no generation has read
// yet is walked: after a delta reload, the rebuilt ones.
func (sc *Corpus) computeStats() {
	sc.statsOnce.Do(func() {
		for i, s := range sc.shards {
			st := s.Doc.Stats()
			sc.totalNodes += st.Nodes
			sc.totalElements += st.Elements
			// A shard root sits at the original root's depth, so shard
			// depths are document depths.
			sc.maxDepth = max(sc.maxDepth, st.MaxDepth)
			if i > 0 {
				// Every shard root after the first is a copy of the
				// same original root element.
				sc.totalNodes--
				sc.totalElements--
			}
		}
	})
}

// TotalNodes returns the node count of the original document.
func (sc *Corpus) TotalNodes() int {
	sc.computeStats()
	return sc.totalNodes
}

// TotalElements returns the element count of the original document — the
// corpus statistic IDF ranking normalizes by.
func (sc *Corpus) TotalElements() int {
	sc.computeStats()
	return sc.totalElements
}

// MaxDepth returns the depth of the original document's deepest node (the
// root is at depth 0).
func (sc *Corpus) MaxDepth() int {
	sc.computeStats()
	return sc.maxDepth
}

// Count returns the corpus-wide posting count of a keyword — the document
// frequency a ranker needs. Every shard root is a copy of the same original
// root element, so postings on shard roots (the root's own tag, or text
// directly under it) collapse to a single posting, exactly matching the
// unsharded index. Root postings sit at local ord 0, making the correction
// a head check per shard.
func (sc *Corpus) Count(keyword string) int {
	total, rootShards := 0, 0
	for _, s := range sc.shards {
		l := s.Index.List(keyword)
		total += l.Len()
		if l.Len() > 0 && l.Ords[0] == 0 {
			rootShards++
		}
	}
	if rootShards > 0 {
		total -= rootShards - 1
	}
	return total
}

// Scorer returns the relevance scorer over the corpus's in-memory counts
// (Count, TotalElements). It never fails; a router's Scorer can.
func (sc *Corpus) Scorer(ctx context.Context, keys []string) (*rank.Scorer, error) {
	return rank.NewScorerFunc(sc.Count, sc.TotalElements()), nil
}

// DistinctKeywords returns the size of the union of the shard vocabularies,
// computed once per generation. It has its own Once: TotalElements is on the
// ranked-query path, which should not pay for sorting and merging
// vocabularies only Stats reads.
func (sc *Corpus) DistinctKeywords() int {
	sc.keywordsOnce.Do(func() {
		// One shard: its index is the whole vocabulary, no union needed.
		if len(sc.shards) == 1 {
			sc.distinctKeywords = sc.shards[0].Index.DistinctKeywords()
			return
		}
		seen := make(map[string]bool)
		for _, s := range sc.shards {
			for _, kw := range s.Index.Vocabulary() {
				seen[kw] = true
			}
		}
		sc.distinctKeywords = len(seen)
	})
	return sc.distinctKeywords
}

// CompletePrefix merges the full per-shard prefix tails and re-ranks the
// union by corpus-wide posting count. Merging whole tails — not per-shard
// top-k lists — is what makes the suggestions exact: a keyword spread
// thinly across shards can rank below every local top-k yet carry the
// highest global count, and truncating before the global re-rank would
// lose it (the suggestions equivalence property test pins sharded output
// identical to unsharded). Each tail is one binary search plus a
// contiguous slice of the shard's sorted vocabulary, so exactness costs a
// scan proportional to the number of matching keywords, not to k.
func (sc *Corpus) CompletePrefix(prefix string, k int) []string {
	// One shard: its index's own completion is the reference the merge
	// below is pinned against, so it answers directly.
	if len(sc.shards) == 1 {
		return sc.shards[0].Index.CompletePrefix(prefix, k)
	}
	if k <= 0 {
		return nil
	}
	counts := make(map[string]int)
	var order []string
	for _, s := range sc.shards {
		for _, kw := range s.Index.PrefixKeywords(prefix) {
			if _, seen := counts[kw]; !seen {
				order = append(order, kw)
				counts[kw] = sc.Count(kw)
			}
		}
	}
	sortByCountDesc(order, counts)
	if len(order) > k {
		order = order[:k]
	}
	return order
}

func sortByCountDesc(kws []string, counts map[string]int) {
	// Stable by (count desc, keyword asc) for deterministic suggestions.
	for i := 1; i < len(kws); i++ {
		for j := i; j > 0; j-- {
			a, b := kws[j-1], kws[j]
			if counts[b] > counts[a] || (counts[b] == counts[a] && b < a) {
				kws[j-1], kws[j] = b, a
			} else {
				break
			}
		}
	}
}
