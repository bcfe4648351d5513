package search

import (
	"errors"
	"fmt"
	"slices"

	"extract/internal/classify"
	"extract/internal/index"
	"extract/xmltree"
)

// Semantics selects the LCA semantics for query evaluation.
type Semantics uint8

const (
	// SemanticsSLCA uses smallest LCAs (XSeek's and the default choice).
	SemanticsSLCA Semantics = iota
	// SemanticsELCA uses exclusive LCAs (XRank-style).
	SemanticsELCA
)

// Options configure an Engine.
type Options struct {
	// Semantics picks SLCA (default) or ELCA evaluation.
	Semantics Semantics
	// Mode picks result construction (default ModeSubtree).
	Mode ConstructionMode
	// MaxResults bounds the number of results (0 = unlimited).
	MaxResults int
	// DistinctAnchors drops results whose anchor entity already anchors
	// an earlier result (two SLCAs under one retailer produce one
	// retailer result). Default true via NewEngine.
	DistinctAnchors bool
}

// Engine evaluates keyword queries over one indexed document.
type Engine struct {
	doc  *xmltree.Document
	ix   *index.Index
	cls  *classify.Classification
	opts Options
}

// ErrEmptyQuery reports a query with no usable keywords.
var ErrEmptyQuery = errors.New("search: query has no keywords")

// NewEngine builds an engine over a document. The index and classification
// may be nil, in which case they are computed here.
func NewEngine(doc *xmltree.Document, ix *index.Index, cls *classify.Classification, opts Options) *Engine {
	if ix == nil {
		ix = index.Build(doc)
	}
	if cls == nil {
		cls = classify.Classify(doc)
	}
	return &Engine{doc: doc, ix: ix, cls: cls, opts: opts}
}

// Document returns the engine's document.
func (e *Engine) Document() *xmltree.Document { return e.doc }

// Index returns the engine's inverted index.
func (e *Engine) Index() *index.Index { return e.ix }

// Classification returns the engine's node classification.
func (e *Engine) Classification() *classify.Classification { return e.cls }

// Evaluation is the intermediate state of one query over one document:
// the parsed keywords, their posting lists, and the LCA set under the
// engine's semantics. Sharded corpora evaluate per shard and merge
// evaluations, so the pieces Search glues together are exposed here.
type Evaluation struct {
	// Keywords are the canonical query terms (phrases joined by spaces).
	Keywords []string
	// Lists holds the packed posting list per keyword, aligned with
	// Keywords. A keyword with no matches in this document has an empty
	// (possibly nil) list.
	Lists []*index.PostingList
	// Entries is the SLCA/ELCA set in document order, as entries of the
	// index's element columns (index.Columns; entry 0 is the root); nil when
	// there is none, as when some keyword has no match here (conjunctive
	// semantics). Only the LCAs a caller builds results for are ever mapped
	// to their nodes.
	Entries []int32
	// Truncated reports that Entries is a bounded prefix of the full set:
	// EvaluateBounded stopped the SLCA scan after proving the first k
	// LCAs in document order. The prefix is byte-identical to the same
	// prefix of an unbounded evaluation.
	Truncated bool
	// Free reports, per keyword under ELCA semantics, whether some match
	// lies outside the subtree of every ELCA below the document root (see
	// ELCAPacked); nil under SLCA.
	Free []bool
}

// Evaluate parses the query and computes posting lists and the LCA set
// without building results. Unlike Search it returns a non-nil
// evaluation even when some keyword has no match, so callers merging
// several documents (shards) can still see the per-keyword match counts.
func (e *Engine) Evaluate(query string) (*Evaluation, error) {
	return e.EvaluateBounded(query, 0)
}

// EvaluateBounded is Evaluate with top-k early termination: when limit > 0
// and the engine runs SLCA semantics, the LCA scan stops once the first
// limit SLCAs in document order are provable, marking the evaluation
// Truncated. ELCA evaluation is never truncated: the scan is as short as
// SLCA's (both run the shortest list), but an ELCA is decided only when the
// scan leaves it, any of its stacked ancestors — the root first of all — may
// still qualify from later matches, and Free needs the root's row after the
// last one (see PERFORMANCE.md). limit <= 0 behaves exactly like Evaluate.
func (e *Engine) EvaluateBounded(query string, limit int) (*Evaluation, error) {
	return e.evaluateBounded(ParseQuery(query), limit)
}

// evaluateBounded is EvaluateBounded over the query's parsed terms.
func (e *Engine) evaluateBounded(terms []Term, limit int) (*Evaluation, error) {
	ev, err := e.ListsOf(terms)
	if err != nil {
		return nil, err
	}
	// Conjunctive semantics: either evaluation has no LCAs when some
	// keyword has no match.
	switch e.opts.Semantics {
	case SemanticsELCA:
		ev.Entries, ev.Free = elcaPacked(e.ix, ev.Lists, entriesOf)
	default:
		ev.Entries, ev.Truncated = slcaPacked(e.ix, limit, ev.Lists, entriesOf)
	}
	return ev, nil
}

// Lists parses the query and resolves its keywords' posting lists: an
// Evaluation without the LCA scan. It is what rebuilding a result from its
// position needs (ResultAt).
func (e *Engine) Lists(query string) (*Evaluation, error) {
	return e.ListsOf(ParseQuery(query))
}

// ListsOf is Lists over a query already parsed (ParseQuery), so the shards
// of one evaluation share one parse. terms are only read.
func (e *Engine) ListsOf(terms []Term) (*Evaluation, error) {
	if len(terms) == 0 {
		return nil, ErrEmptyQuery
	}
	ev := &Evaluation{
		Keywords: make([]string, len(terms)),
		Lists:    make([]*index.PostingList, len(terms)),
	}
	for i, t := range terms {
		ev.Keywords[i] = t.String()
		if t.IsPhrase() {
			ev.Lists[i] = index.PackNodes(phraseMatches(e.ix, t.Tokens))
		} else {
			ev.Lists[i] = e.ix.List(t.Tokens[0])
		}
	}
	return ev, nil
}

// ResultAt rebuilds one result of ev's query from its position: the LCA at
// preorder position lca of the engine's document, anchored at position
// anchor. It is the result evaluation built for that LCA, by the same rule —
// a view, or the ModeXSeek projection — so a result can travel as its two
// positions and be rebuilt where its document lives. Positions that are not
// in the document, or an anchor that is not the LCA's, are an error.
func (e *Engine) ResultAt(ev *Evaluation, anchor, lca int) (*Result, error) {
	if !e.Anchors(anchor, lca) {
		return nil, fmt.Errorf("search: no result anchored at %d for the LCA at %d", anchor, lca)
	}
	return e.buildResult(e.doc.ByOrd(anchor), e.doc.ByOrd(lca), newRuns(ev, 1)), nil
}

// Anchors reports whether positions anchor and lca are nodes of the engine's
// document and a result for the LCA at lca is anchored at anchor.
func (e *Engine) Anchors(anchor, lca int) bool {
	a, l := e.doc.ByOrd(anchor), e.doc.ByOrd(lca)
	if a == nil || l == nil || !l.IsElement() {
		return false
	}
	at, _ := slices.BinarySearch(e.ix.Columns().Pos, l.Start)
	return e.anchorOf(l, e.entityLabels(), at) == a
}

// Results builds the results for the given LCA subset of an evaluation,
// applying the engine's DistinctAnchors and MaxResults options, and returns
// them sorted by anchor document order — results of one anchor (without
// DistinctAnchors) by LCA document order, so a shard orders them as the
// whole document does. The LCAs are elements of the engine's document. Each
// LCA's anchor is resolved and de-duplicated before anything is built, so a
// dropped LCA costs one map probe.
func (e *Engine) Results(ev *Evaluation, lcas []*xmltree.Node) []*Result {
	pos := e.ix.Columns().Pos
	entries := make([]int32, len(lcas))
	for i, lca := range lcas {
		at, _ := slices.BinarySearch(pos, lca.Start)
		entries[i] = int32(at)
	}
	return e.results(ev, entries, nil)
}

// results is Results over the LCAs accepted by keep (nil keeps all), given
// as column entries, which are mapped to their nodes one by one as they are
// reached: building stops at MaxResults, and what lies past it is never
// read. The results' match runs are carved from slabs of bounds local to the
// call, each sized for every LCA up to the bound and at most resultSlab.
func (e *Engine) results(ev *Evaluation, entries []int32, keep func(*xmltree.Node) bool) []*Result {
	var (
		results     []*Result
		seenAnchors = make(map[*xmltree.Node]bool)
		runs        *matchRuns
		slab        = min(len(entries), resultSlab)
		entity      = e.entityLabels()
		pos         = e.ix.Columns().Pos
	)
	if e.opts.MaxResults > 0 {
		slab = min(slab, e.opts.MaxResults)
	}
	for _, entry := range entries {
		lca := e.doc.ByOrd(int(pos[entry]))
		if keep != nil && !keep(lca) {
			continue
		}
		anchor := e.anchorOf(lca, entity, int(entry))
		if e.opts.DistinctAnchors && seenAnchors[anchor] {
			continue
		}
		seenAnchors[anchor] = true
		if runs == nil || !runs.room() {
			runs = newRuns(ev, slab)
		}
		results = append(results, e.buildResult(anchor, lca, runs))
		if e.opts.MaxResults > 0 && len(results) >= e.opts.MaxResults {
			break
		}
	}
	slices.SortFunc(results, func(a, b *Result) int {
		if d := a.Anchor.Ord - b.Anchor.Ord; d != 0 {
			return d
		}
		return a.LCA.Ord - b.LCA.Ord
	})
	return results
}

// resultSlab is the most results one slab of match-run bounds has room for:
// an unbounded evaluation may have many LCAs that anchor deduplication or the
// keep filter drop, so results allocates no more before it builds any.
const resultSlab = 256

// EvaluateResults evaluates a query and builds results for the LCAs
// accepted by keep (nil keeps all), exploiting top-k early termination:
// when the engine bounds results (MaxResults > 0, SLCA semantics), the LCA
// scan stops after the first MaxResults provable SLCAs. If anchor
// deduplication (DistinctAnchors) or the keep filter then consumes some of
// the bound, the bound is widened 4x and evaluation retried, so the results
// are byte-identical to an unbounded evaluation's — the occasional retry
// re-pays the cheap bounded scan, the common case touches only the matches
// needed for k results. The kept subset is never materialised: building
// stops at MaxResults, and only the LCAs reached by then are mapped to their
// nodes. Returns the evaluation and the results.
func (e *Engine) EvaluateResults(query string, keep func(*xmltree.Node) bool) (*Evaluation, []*Result, error) {
	return e.EvaluateResultsOf(ParseQuery(query), keep)
}

// EvaluateResultsOf is EvaluateResults over a query already parsed
// (ParseQuery): a widened retry parses nothing again, and the shards of one
// evaluation share one parse. terms are only read.
func (e *Engine) EvaluateResultsOf(terms []Term, keep func(*xmltree.Node) bool) (*Evaluation, []*Result, error) {
	limit := 0
	if e.opts.MaxResults > 0 && e.opts.Semantics != SemanticsELCA {
		limit = e.opts.MaxResults
	}
	for {
		ev, err := e.evaluateBounded(terms, limit)
		if err != nil {
			return nil, nil, err
		}
		if ev.Entries == nil {
			return ev, nil, nil
		}
		results := e.results(ev, ev.Entries, keep)
		if !ev.Truncated || len(results) >= e.opts.MaxResults {
			return ev, results, nil
		}
		limit *= 4
	}
}

// Search evaluates a conjunctive keyword query and returns its results in
// document order of their anchors. Double-quoted spans are phrase terms
// that must match consecutively inside one text value. When the engine
// bounds results, evaluation terminates early once the bound is provably
// filled (see EvaluateResults).
func (e *Engine) Search(query string) ([]*Result, error) {
	_, results, err := e.EvaluateResults(query, nil)
	return results, err
}

// Explain returns a short per-keyword report of posting list sizes, used by
// the CLI and the demo server.
func (e *Engine) Explain(query string) string {
	s := ""
	for _, kw := range index.Tokenize(query) {
		s += fmt.Sprintf("%s: %d matches\n", kw, len(e.ix.Nodes(kw)))
	}
	return s
}
