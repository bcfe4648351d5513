package search

import (
	"cmp"
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
	// Keywords are the query's term keys (Query.Keys, shared with it).
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
	// the evaluation stopped the SLCA scan after proving the first k
	// LCAs in document order. The prefix is byte-identical to the same
	// prefix of an unbounded evaluation.
	Truncated bool
	// Free reports, per keyword under ELCA semantics, whether some match
	// lies outside the subtree of every ELCA below the document root (see
	// ELCAPacked); nil under SLCA.
	Free []bool
}

// evaluateBounded computes the query's posting lists and LCA set without
// building results. Unlike Search it returns a non-nil evaluation even when
// some keyword has no match, so callers merging several documents (shards)
// can still see the per-keyword match counts.
//
// With limit > 0 it terminates early: when the engine runs SLCA semantics,
// the LCA scan stops once the first limit SLCAs in document order are
// provable, marking the evaluation Truncated. ELCA evaluation is never
// truncated: the scan is as short as SLCA's (both run the shortest list),
// but an ELCA is decided only when the scan leaves it, any of its stacked
// ancestors — the root first of all — may still qualify from later matches,
// and Free needs the root's row after the last one (see PERFORMANCE.md).
// limit <= 0 evaluates the whole LCA set.
func (e *Engine) evaluateBounded(q Query, limit int) (*Evaluation, error) {
	ev, err := e.Lists(q)
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

// Lists resolves the query's posting lists: an Evaluation without the LCA
// scan. It is what rebuilding a result from its position needs (ResultAt),
// and what a whole-document result reads on every shard. Its Keywords are
// q.Keys; q is only read.
func (e *Engine) Lists(q Query) (*Evaluation, error) {
	if len(q.Terms) == 0 {
		return nil, ErrEmptyQuery
	}
	ev := &Evaluation{Keywords: q.Keys, Lists: make([]*index.PostingList, len(q.Terms))}
	for i, t := range q.Terms {
		if t.IsPhrase() {
			ev.Lists[i] = index.PackNodes(phraseMatches(e.ix, t.Tokens))
		} else {
			ev.Lists[i] = e.ix.List(t.Tokens[0])
		}
	}
	return ev, nil
}

// Hit is one result of an evaluation before it is built: the preorder
// positions of its anchor and of its LCA in the engine's document. Evaluate
// yields hits, and Build turns the ones a caller keeps into Results, so a
// result the merge's cut drops is never built. Shard tells whose a hit is to
// a caller merging the hits of several documents, the shards of one corpus:
// an engine knows one document, leaves it 0 and never reads it.
type Hit struct{ Shard, Anchor, LCA int32 }

// compareHits orders hits as results are ordered: by anchor, and the hits of
// one anchor (without DistinctAnchors) by LCA.
func compareHits(a, b Hit) int {
	return cmp.Or(cmp.Compare(a.Anchor, b.Anchor), cmp.Compare(a.LCA, b.LCA))
}

// ResultAt rebuilds one result of ev's query from its position: the LCA at
// preorder position lca of the engine's document, anchored at position
// anchor. It is the result evaluation yields for that LCA, built by the same
// rule (Build) — a view, or the ModeXSeek projection — so a result can travel
// as its two positions and be rebuilt where its document lives. Positions
// that are not in the document, or an anchor that is not the LCA's, are an
// error.
func (e *Engine) ResultAt(ev *Evaluation, anchor, lca int) (*Result, error) {
	if !e.Anchors(anchor, lca) {
		return nil, fmt.Errorf("search: no result anchored at %d for the LCA at %d", anchor, lca)
	}
	return e.Build(nil, ev, []Hit{{Anchor: int32(anchor), LCA: int32(lca)}})[0], nil
}

// Anchors reports whether positions anchor and lca are nodes of the engine's
// document and a result for the LCA at lca is anchored at anchor.
func (e *Engine) Anchors(anchor, lca int) bool {
	a, l := e.doc.ByOrd(anchor), e.doc.ByOrd(lca)
	if a == nil || l == nil || !l.IsElement() {
		return false
	}
	cols := e.ix.Columns()
	at, _ := slices.BinarySearch(cols.Pos, l.Start)
	return cols.Pos[e.anchorAt(e.entityLabels(), int32(at))] == a.Start
}

// hits is step one's selection over the LCAs accepted by keep (nil keeps
// all; it reads an LCA's position), given as column entries in document
// order: each LCA's anchor, resolved on the columns, in LCA order until
// MaxResults distinct anchors (with DistinctAnchors) are found, then sorted
// as results are (compareHits). Nothing is built and no node is read. An
// anchor already taken is found on a stack of the taken anchors whose
// subtree the scan is still in: anchors are ancestors-or-self of their LCAs,
// so a taken anchor recurs only while the scan is inside it, and the open
// anchors form one chain of ancestors.
func (e *Engine) hits(entries []int32, keep func(lca int32) bool) []Hit {
	n := len(entries)
	if e.opts.MaxResults > 0 {
		n = min(n, e.opts.MaxResults)
	}
	var (
		out    []Hit // allocated at the first hit: a shard's root alone is none
		buf    [32]int32
		open   = buf[:0] // column entries of the taken anchors the scan is inside
		cols   = e.ix.Columns()
		entity = e.entityLabels()
	)
	for _, at := range entries {
		lca := cols.Pos[at]
		if keep != nil && !keep(lca) {
			continue
		}
		anchor := e.anchorAt(entity, at)
		if e.opts.DistinctAnchors {
			for len(open) > 0 && cols.End[open[len(open)-1]] < lca {
				open = open[:len(open)-1]
			}
			if slices.Contains(open, anchor) {
				continue
			}
			open = append(open, anchor)
		}
		if out == nil {
			out = make([]Hit, 0, n)
		}
		out = append(out, Hit{Anchor: cols.Pos[anchor], LCA: lca})
		if e.opts.MaxResults > 0 && len(out) >= e.opts.MaxResults {
			break
		}
	}
	slices.SortFunc(out, compareHits)
	return out
}

// Evaluate is step one of answering a query: it evaluates q and returns its
// hits — the results it yields, unbuilt — for the LCAs accepted by keep (nil
// keeps all; it reads an LCA's position, the root's being 0), in result
// order (compareHits). Build builds the ones a caller keeps. It
// exploits top-k early termination: when the engine bounds results
// (MaxResults > 0, SLCA semantics), the LCA scan stops after the first
// MaxResults provable SLCAs. If anchor deduplication (DistinctAnchors) or
// the keep filter then consumes some of the bound, the bound is widened 4x
// and evaluation retried, so the hits are those of an unbounded evaluation —
// the occasional retry re-pays the cheap bounded scan, the common case
// touches only the matches needed for k results. Returns the evaluation,
// which Build reads, and the hits; q is only read, so the shards of one query
// share one parse.
func (e *Engine) Evaluate(q Query, keep func(lca int32) bool) (*Evaluation, []Hit, error) {
	limit := 0
	if e.opts.MaxResults > 0 && e.opts.Semantics != SemanticsELCA {
		limit = e.opts.MaxResults
	}
	for {
		ev, err := e.evaluateBounded(q, limit)
		if err != nil {
			return nil, nil, err
		}
		if ev.Entries == nil {
			return ev, nil, nil
		}
		hits := e.hits(ev.Entries, keep)
		if !ev.Truncated || len(hits) >= e.opts.MaxResults {
			return ev, hits, nil
		}
		limit *= 4
	}
}

// EvaluateResults is Evaluate over a query string, parsed here, with every
// hit built and an LCA filter that reads nodes. Nothing in the product calls
// it: it is kept only because benchmark/ times one shard's evaluation
// through it.
func (e *Engine) EvaluateResults(query string, keep func(*xmltree.Node) bool) (*Evaluation, []*Result, error) {
	var at func(int32) bool
	if keep != nil {
		at = func(lca int32) bool { return keep(e.doc.ByOrd(int(lca))) }
	}
	ev, hits, err := e.Evaluate(Parse(query), at)
	if err != nil {
		return nil, nil, err
	}
	return ev, e.Build(nil, ev, hits), nil
}

// Search evaluates a conjunctive keyword query and returns its results in
// document order of their anchors. Phrase terms must match consecutively
// inside one text value. When the engine bounds results, evaluation
// terminates early once the bound is provably filled (see Evaluate).
func (e *Engine) Search(q Query) ([]*Result, error) {
	ev, hits, err := e.Evaluate(q, nil)
	if err != nil {
		return nil, err
	}
	return e.Build(nil, ev, hits), nil
}
