package search

import (
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
// Results of either kind are shared — by the query cache, by every caller a
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
}

// IsView reports whether the result is a read-only view of its source
// document (it shares the corpus's nodes) rather than an owned tree.
func (r *Result) IsView() bool { return r.Doc.IsView() }

// Size returns the number of edges of the result tree.
func (r *Result) Size() int { return r.Doc.Len() - 1 }

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
