package search

import (
	"context"
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
// sub-document over the anchor's preorder run, and Matches holds sub-slices
// of the index's posting lists. Nothing is copied, so a result costs the same
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

	// Matches maps each query keyword to its matching source nodes
	// inside the result, in document order; a keyword with no match
	// inside the result is absent. On a view the slices alias the index's
	// posting lists, capacity-clipped so an append reallocates.
	Matches map[string][]*xmltree.Node

	// Index is the index of the document a view result is a view of, set by
	// whoever builds the result from one (the engine; the facade for XPath
	// selections). The snippet generator reads the result's statistics and
	// keyword instances from it instead of walking the result. Nil on an
	// owned tree, and on a view nobody gave one: such a result is read
	// node by node, to the same snippet.
	Index *index.Index

	// pending is set on a deferred result, and only there.
	pending *pending
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
	ms := r.Matches[kw]
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
	return &Result{
		Root:    n,
		Doc:     doc.Subtree(n),
		Anchor:  n,
		LCA:     n,
		Matches: map[string][]*xmltree.Node{},
	}
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

// matchesWithin returns, per keyword, the run of its posting list that lies
// inside anchor's subtree (index.PostingList.Within), as a sub-slice of the
// list — capacity-clipped, so an append cannot write into the index.
func matchesWithin(anchor *xmltree.Node, keywords []string, lists []*index.PostingList) map[string][]*xmltree.Node {
	matches := make(map[string][]*xmltree.Node, len(keywords))
	for i, kw := range keywords {
		pl := lists[i]
		if lo, hi := pl.Within(anchor.Start, anchor.End); hi > lo {
			matches[kw] = pl.Nodes[lo:hi:hi]
		}
	}
	return matches
}

// buildResult builds the Result for one LCA node anchored at anchor: a view
// of the anchor's subtree, or in ModeXSeek the trimmed projection of it.
func (e *Engine) buildResult(anchor, lca *xmltree.Node, ev *Evaluation) *Result {
	r := &Result{
		Root:    anchor,
		Anchor:  anchor,
		LCA:     lca,
		Matches: matchesWithin(anchor, ev.Keywords, ev.Lists),
	}
	if e.opts.Mode == ModeXSeek {
		r.Root = projectXSeek(anchor, r.Matches, e.cls)
		r.Doc = xmltree.NewDocument(r.Root)
	} else {
		r.Doc, r.Index = e.doc.Subtree(anchor), e.ix
	}
	return r
}

// projectXSeek builds the ModeXSeek tree of a result as a new tree whose
// nodes carry Origin pointers into the source document.
func projectXSeek(anchor *xmltree.Node, matches map[string][]*xmltree.Node, cls *classify.Classification) *xmltree.Node {
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
	for _, ms := range matches {
		for _, m := range ms {
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
