package search

import (
	"context"
	"slices"
	"sync"

	"extract/internal/classify"
	"extract/internal/index"
	"extract/xmltree"
)

// Result is one query result: a tree rooted at (an entity ancestor of) an
// LCA node. Result trees are what the snippet generator consumes.
//
// A subtree-mode result (ModeSubtree, FromNode) is a read-only view of the
// source document: Root is the anchor node itself, Doc a zero-copy
// sub-document over the anchor's preorder run, and its matches are runs of
// the index's posting lists. Nothing is copied, so a result costs the same
// to build whatever the size of its subtree, and holding one keeps its corpus
// generation reachable. The nodes of a view keep the enclosing document's
// Parent, Ord, Start and End — Root.Parent may lead out of the result,
// and consumers stop their climbs at Root. A ModeXSeek projection and a result
// decoded from the wire are owned trees instead: new, small trees finalized as
// documents of their own. IsView tells the two kinds apart.
//
// A deferred result (Defer) — what a distributed router returns — has no tree
// yet: its tree fields are nil, Size and MatchDepth answer from what arrived
// with it, and Tree builds the tree the first time anything asks — which, on
// a router, fetches it and can fail.
//
// A result's keyword matches (Matches, MatchKeywords) are runs of its
// query's posting lists, which every result of the evaluation shares
// (matchRuns); a result decoded from the wire holds lists of its own tree's
// nodes the same way (OwnMatches). Holding a result holds its query's lists,
// never the evaluation's LCAs.
//
// Results of every kind are shared — by the query cache, by every caller a
// cached entry is replayed to — and must never be mutated.
type Result struct {
	// Root is the root of the result tree: the anchor itself for a view,
	// the root of the projected or decoded tree otherwise (a projection's
	// nodes carry Origin pointers into the source document).
	Root *xmltree.Node

	// Doc is the result tree as a document with Doc.Root == Root: a
	// Subtree view of the source document, or the owned tree finalized
	// with positions relative to the result root.
	Doc *xmltree.Document

	// Anchor is the source-document node the result is rooted at.
	Anchor *xmltree.Node

	// LCA is the source-document SLCA/ELCA node the result derives from.
	LCA *xmltree.Node

	// Index is the index of the document a view result is a view of, set by
	// whoever builds the result from one (the engine; the facade for XPath
	// selections). The snippet generator reads the result's statistics and
	// keyword instances from it instead of walking the result. Nil on an
	// owned tree, and on a view nobody gave one: such a result is read
	// node by node, to the same snippet.
	Index *index.Index

	// runs holds the result's matches, at runs.bounds[at:]: see matchRuns.
	runs *matchRuns
	at   int32

	// pending is set on a deferred result, and only there.
	pending *pending
}

// matchRuns holds the matches of a batch of results of one evaluation: the
// query's keywords and posting lists (Evaluation.Keywords and Lists) and a
// slab of bounds, two a keyword a result. The matches of keywords[i] in the
// result whose bounds start at at are lists[i].Nodes[bounds[at+2i] :
// bounds[at+2i+1]].
type matchRuns struct {
	keywords []string
	lists    []*index.PostingList
	bounds   []int32
}

// newRuns returns an empty batch for up to n results of ev's query.
func newRuns(ev *Evaluation, n int) *matchRuns {
	return &matchRuns{keywords: ev.Keywords, lists: ev.Lists, bounds: make([]int32, 0, 2*len(ev.Lists)*n)}
}

// room reports whether the batch has bounds left for one more result.
func (m *matchRuns) room() bool { return cap(m.bounds)-len(m.bounds) >= 2*len(m.lists) }

// Matches returns kw's matching source nodes inside the result, in document
// order, or nil when kw has none there (or the result is deferred: Tree
// first). On a view the slice aliases the index's posting list,
// capacity-clipped so an append reallocates.
func (r *Result) Matches(kw string) []*xmltree.Node {
	if r.runs == nil {
		return nil
	}
	if i := slices.Index(r.runs.keywords, kw); i >= 0 {
		return r.match(i)
	}
	return nil
}

// match returns the run of the query's keyword i.
func (r *Result) match(i int) []*xmltree.Node {
	if lo, hi := r.bounds(i); hi > lo {
		return r.runs.lists[i].Nodes[lo:hi:hi]
	}
	return nil
}

func (r *Result) bounds(i int) (lo, hi int32) {
	b := r.runs.bounds[int(r.at)+2*i:]
	return b[0], b[1]
}

// MatchKeywords returns the keywords that have a match inside the result,
// sorted: the order a tree record carries them in.
func (r *Result) MatchKeywords() []string {
	if r.runs == nil {
		return nil
	}
	var kws []string
	for i, kw := range r.runs.keywords {
		if lo, hi := r.bounds(i); hi > lo {
			kws = append(kws, kw)
		}
	}
	slices.Sort(kws)
	return kws
}

// OwnMatches records, on a result being built and not yet shared, that the
// matches of keywords[i] are all of lists[i]: how a result that arrives with
// its matches — a tree record decoded from the wire — holds them.
func (r *Result) OwnMatches(keywords []string, lists []*index.PostingList) {
	r.runs = &matchRuns{keywords: keywords, lists: lists, bounds: make([]int32, 2*len(lists))}
	for i, pl := range lists {
		r.runs.bounds[2*i+1] = int32(len(pl.Nodes))
	}
}

// KeywordDepth is what ranking reads of one keyword's matches in a result:
// the least depth below the anchor at which one of them lies.
type KeywordDepth struct {
	Keyword string
	Depth   int
}

// pending is a deferred result: what is known of it without its tree, and
// how to build the tree once.
type pending struct {
	nodes    int
	retained int
	depths   []KeywordDepth

	mu     sync.Mutex
	build  func(context.Context) (*Result, error)
	tree   *Result
	flight chan struct{} // closed when the running build ends; nil when none runs
}

// Defer returns a deferred result: nodes is its tree's node count, retained
// the bytes it holds until the tree is built, depths its per-keyword least
// match depths (MatchDepth), and build makes its tree. build is called by
// Tree, one call at a time, until one succeeds.
func Defer(nodes, retained int, depths []KeywordDepth, build func(context.Context) (*Result, error)) *Result {
	return &Result{pending: &pending{nodes: nodes, retained: retained, depths: depths, build: build}}
}

// Tree returns the result with its tree fields filled in: r itself, or — for
// a deferred result — the tree built on the first successful call, which
// ctx bounds. Concurrent first calls wait for one build — each only as long
// as its own ctx allows — and every call after a success returns the same
// tree. A build that fails (a distributed router's tree fetch, or ctx ending)
// returns its error and leaves the result deferred, so a later call tries
// again; a result held across a move of the serving tier's generation fails
// every time. Only a deferred result's Tree can fail.
func (r *Result) Tree(ctx context.Context) (*Result, error) {
	p := r.pending
	if p == nil {
		return r, nil
	}
	for {
		p.mu.Lock()
		if tree := p.tree; tree != nil {
			p.mu.Unlock()
			return tree, nil
		}
		if f := p.flight; f != nil {
			p.mu.Unlock()
			select {
			case <-f:
				continue
			case <-ctx.Done():
				return nil, ctx.Err()
			}
		}
		f, build := make(chan struct{}), p.build
		p.flight = f
		p.mu.Unlock()
		tree, err := build(ctx)
		p.mu.Lock()
		if err == nil {
			p.tree, p.build = tree, nil
		}
		p.flight = nil
		p.mu.Unlock()
		close(f)
		return tree, err
	}
}

// Retained reports whether r is deferred — its tree not built yet — and, if
// so, the bytes it holds meanwhile. A deferred result whose tree was built
// holds that tree and is no longer deferred: it is an owned tree of Size
// edges.
func (r *Result) Retained() (bytes int, deferred bool) {
	p := r.pending
	if p == nil {
		return 0, false
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.retained, p.tree == nil
}

// IsView reports whether the result is a read-only view of its source
// document (it shares the corpus's nodes) rather than an owned tree. A
// deferred result is not.
func (r *Result) IsView() bool { return r.pending == nil && r.Doc.IsView() }

// Size returns the number of edges of the result tree.
func (r *Result) Size() int {
	if r.pending != nil {
		return r.pending.nodes - 1
	}
	return r.Doc.Len() - 1
}

// MatchDepth returns the least depth below the anchor of kw's matches in the
// result (a match above the anchor counts as depth 0), and false when kw has
// none. A deferred result answers from the depths it arrived with, which its
// sender computed by this same rule.
func (r *Result) MatchDepth(kw string) (int, bool) {
	if r.pending != nil {
		for _, d := range r.pending.depths {
			if d.Keyword == kw {
				return d.Depth, true
			}
		}
		return 0, false
	}
	ms := r.Matches(kw)
	if len(ms) == 0 {
		return 0, false
	}
	anchor := r.Anchor.Depth()
	best := -1
	for _, m := range ms {
		d := max(m.Depth()-anchor, 0)
		if best < 0 || d < best {
			best = d
		}
	}
	return best, true
}

// FromNode returns a Result viewing the subtree of an arbitrary node of
// doc: the bridge for structurally selected results (e.g. XPath), which
// carry no keyword matches but feed the snippet generator like any query
// result.
func FromNode(doc *xmltree.Document, n *xmltree.Node) *Result {
	return &Result{Root: n, Doc: doc.Subtree(n), Anchor: n, LCA: n}
}

// ConstructionMode selects how result trees are built from an LCA node.
type ConstructionMode uint8

const (
	// ModeSubtree returns the full subtree of the anchor node, as a view
	// of the source document. This mirrors the paper's setting, where
	// whole query results (Figure 1) are handed to the snippet generator.
	ModeSubtree ConstructionMode = iota
	// ModeXSeek materializes the XSeek-style trimmed result: paths from
	// the anchor to every keyword match, every matched node's full
	// subtree, and the attribute children of the anchor entity and of
	// every entity on a match path.
	ModeXSeek
)

// anchorOf resolves the node a result for lca is rooted at: the nearest
// entity ancestor-or-self of the LCA when the classification knows one
// (XSeek's meaningful return unit — query results in the paper are
// entity-rooted, e.g. the retailer in Figure 1), otherwise the LCA itself.
func anchorOf(lca *xmltree.Node, cls *classify.Classification) *xmltree.Node {
	if e := cls.EntityOwner(lca); e != nil {
		return e
	}
	return lca
}

// buildResult builds the Result for one LCA node anchored at anchor: a view
// of the anchor's subtree, or in ModeXSeek the trimmed projection of it. Its
// matches are, per keyword, the run of the query's posting list inside the
// anchor's subtree (index.PostingList.Within), whose bounds it appends to
// runs, which has room for them.
func (e *Engine) buildResult(anchor, lca *xmltree.Node, runs *matchRuns) *Result {
	r := &Result{Root: anchor, Anchor: anchor, LCA: lca, runs: runs, at: int32(len(runs.bounds))}
	for _, pl := range runs.lists {
		lo, hi := pl.Within(anchor.Start, anchor.End)
		runs.bounds = append(runs.bounds, int32(lo), int32(hi))
	}
	if e.opts.Mode == ModeXSeek {
		r.Root = projectXSeek(anchor, r, e.cls)
		r.Doc = xmltree.NewDocument(r.Root)
	} else {
		r.Doc, r.Index = e.doc.Subtree(anchor), e.ix
	}
	return r
}

// projectXSeek builds the ModeXSeek tree of r, anchored at anchor, as a new
// tree whose nodes carry Origin pointers into the source document.
func projectXSeek(anchor *xmltree.Node, r *Result, cls *classify.Classification) *xmltree.Node {
	keep := make(map[*xmltree.Node]bool)
	keep[anchor] = true
	addSubtree := func(n *xmltree.Node) {
		n.Walk(func(m *xmltree.Node) bool { keep[m] = true; return true })
	}
	addAttrs := func(n *xmltree.Node) {
		for _, c := range n.Children {
			if cls.IsAttribute(c) {
				addSubtree(c)
			}
		}
	}
	// A matched attribute displays with its value; a matched entity
	// or connection node displays with its attribute children only —
	// keeping a matched entity's whole subtree would defeat the
	// trimming whenever a keyword matches the anchor's own tag.
	addMatch := func(m *xmltree.Node) {
		if cls.IsAttribute(m) {
			addSubtree(m)
			return
		}
		keep[m] = true
		addAttrs(m)
		// Keep direct text (mixed content / untyped leaves).
		for _, c := range m.Children {
			if c.IsText() {
				keep[c] = true
			}
		}
	}
	addAttrs(anchor)
	for i := range r.runs.keywords {
		for _, m := range r.match(i) {
			addMatch(m)
			for p := m; p != anchor && p != nil; p = p.Parent {
				keep[p] = true
				if cls.IsEntity(p) {
					addAttrs(p)
				}
			}
		}
	}
	// keep holds the anchor, so the projection is never empty.
	return xmltree.ProjectSet(anchor, keep)
}
