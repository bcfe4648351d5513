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
// A whole-document result (Whole) — a sharded corpus's result anchored at the
// document root — has no tree either: it is a view over the shards, by
// global position (index.Whole), which the snippet pipeline reads as it is;
// Tree builds a tree of its own from the shards (WholeDocument) only for a
// reader that needs one.
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

	// pending is set on a deferred result, and on a whole-document one.
	pending *pending
}

// whole is what a whole-document result holds instead of a tree: the
// shards it reads, its LCA's global position, and its query's keys and
// posting lists on every shard — never an evaluation's LCAs.
type whole struct {
	view     *index.Whole
	lca      int32
	keywords []string
	lists    [][]*index.PostingList // per shard, aligned with keywords
}

// Whole returns a whole-document result of a sharded corpus: the result
// anchored at the document root, the one answer that spans shards. It is a
// view over the shards (view), addressed by the global positions of
// index.Whole, and has no tree: its tree fields are nil, Size answers from
// the view and MatchDepth from the shards' posting lists, and the snippet
// pipeline reads the shards through the view (core.Generator). lca is the
// global position of its LCA; keys are its query's keys (Query.Keys) and
// lists, per shard, their posting lists there (Evaluation.Lists), which it
// holds and only reads. It is a view (IsView), deferred (Retained) until
// Tree builds its tree (WholeDocument) for a reader that needs one, once;
// the result then holds it.
func Whole(view *index.Whole, lca int32, keys []string, lists [][]*index.PostingList) *Result {
	w := &whole{view: view, lca: lca, keywords: keys, lists: lists}
	return &Result{pending: &pending{nodes: view.Len(), build: w.tree, whole: w}}
}

// tree builds a whole-document result's tree (WholeDocument), whose
// positions are the view's: its LCA and matches are the nodes at theirs.
func (w *whole) tree(context.Context) (*Result, error) {
	doc := WholeDocument(w.view)
	nodes := doc.Nodes()
	r := &Result{Root: doc.Root, Doc: doc, Anchor: doc.Root, LCA: nodes[w.lca]}
	lists := make([]*index.PostingList, len(w.keywords))
	for k, kw := range w.keywords {
		var ms []*xmltree.Node
		for _, pos := range w.matches(kw) {
			ms = append(ms, nodes[pos])
		}
		lists[k] = index.PackNodes(ms)
	}
	r.OwnMatches(w.keywords, lists)
	return r, nil
}

// WholeDocument builds the whole document that view reads as a finalized
// document of its own, with no index: the root once, then every part's root
// children in part order, each node at its global position with its global
// symbol id (index.Whole.Sym) — the document NewDocument makes of a copy of
// the whole document. Labels and values are the shards' strings; no node
// points into the shards.
func WholeDocument(view *index.Whole) *xmltree.Document {
	src := view.Nodes()
	slab, nodes := make([]xmltree.Node, len(src)), make([]*xmltree.Node, len(src))
	kids := make([]*xmltree.Node, len(src)-1) // every node but the root is a child
	for pos, n := range src {
		c := &slab[pos]
		c.Kind, c.Sym, c.Label, c.Value, c.FromAttr = n.Kind, view.Sym(int32(pos), n), n.Label, n.Value, n.FromAttr
		c.Ord, c.Start, c.End = pos, int32(pos), int32(len(src)-1)
		nodes[pos] = c
		if pos == 0 { // the root's children come from every part
			continue
		}
		i, _ := view.Locate(int32(pos))
		c.End, c.Parent = view.Global(i, n.End), &slab[view.Global(i, n.Parent.Start)]
		c.Parent.Children = append(c.Parent.Children, c)
		if m := len(n.Children); m > 0 {
			c.Children, kids = kids[:0:m], kids[m:]
		}
	}
	return xmltree.AdoptFinalized(nodes)
}

// Whole returns the view a whole-document result reads and its LCA's global
// position; a nil view for any other result.
func (r *Result) Whole() (view *index.Whole, lca int32) {
	if w := r.wholeOf(); w != nil {
		return w.view, w.lca
	}
	return nil, 0
}

// Space returns the position space the snippet pipeline reads r in and r's
// interval there (index.Index.Interval): the whole of a whole-document
// result's view; nil for a tree that has no index.
func (r *Result) Space() (w *index.Whole, start, end int32) {
	if w := r.wholeOf(); w != nil {
		return w.view, 0, int32(w.view.Len() - 1)
	}
	return r.Index.Interval(r.Doc)
}

// wholeOf returns what a whole-document result holds, nil for any other.
func (r *Result) wholeOf() *whole {
	if r.pending == nil {
		return nil
	}
	return r.pending.whole
}

// listsOf returns keyword kw's posting list on every shard (nil where it
// has none), in shard order; nil when kw is not a keyword of the query.
func (w *whole) listsOf(kw string) []*index.PostingList {
	k := slices.Index(w.keywords, kw)
	if k < 0 {
		return nil
	}
	out := make([]*index.PostingList, len(w.lists))
	for i, ls := range w.lists {
		out[i] = ls[k]
	}
	return out
}

// WholeMatches returns the global positions of keyword kw's matches in a
// whole-document result, in document order: the root once, however many
// shards post their copy of it, then every shard's other matches.
func (r *Result) WholeMatches(kw string) []int32 { return r.wholeOf().matches(kw) }

// matches is WholeMatches.
func (w *whole) matches(kw string) []int32 {
	var out []int32
	lists := w.listsOf(kw)
	if slices.ContainsFunc(lists, func(pl *index.PostingList) bool { return pl.Len() > 0 && pl.Ords[0] == 0 }) {
		out = append(out, 0)
	}
	for i, pl := range lists {
		for j := range pl.Len() {
			if pl.Ords[j] != 0 {
				out = append(out, w.view.Global(i, pl.Ords[j]))
			}
		}
	}
	return out
}

// wholeDepth is MatchDepth for a whole-document result: the least depth of
// kw's matches in any shard, a shard root's being the document root's, 0.
func (r *Result) wholeDepth(kw string) (int, bool) {
	best := -1
	for _, pl := range r.wholeOf().listsOf(kw) {
		for j := range pl.Len() {
			if d := depthUnder(pl.Nodes[j], 0, best); best < 0 || d < best {
				best = d
			}
			if best == 0 {
				return 0, true
			}
		}
	}
	return best, best >= 0
}

// depthUnder returns the number of edges from n up to its ancestor-or-self
// at position top (Start) — its root's, 0, at most — or limit when that is
// less and not negative: the climb stops as soon as it can no longer come out
// below limit. The ancestor is found by position, not by pointer.
func depthUnder(n *xmltree.Node, top int32, limit int) int {
	d := 0
	for ; n.Start != top && n.Parent != nil && d != limit; n = n.Parent {
		d++
	}
	return d
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
	if w := r.wholeOf(); w != nil {
		var kws []string
		for _, kw := range w.keywords {
			if slices.ContainsFunc(w.listsOf(kw), func(pl *index.PostingList) bool { return pl.Len() > 0 }) {
				kws = append(kws, kw)
			}
		}
		slices.Sort(kws)
		return kws
	}
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

	// whole is set on a whole-document result, and only there: see Whole.
	whole *whole

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
// a deferred or a whole-document result — the tree built on the first
// successful call, which ctx bounds. Concurrent first calls wait for one build — each only as long
// as its own ctx allows — and every call after a success returns the same
// tree. A build that fails (a distributed router's tree fetch, or ctx ending)
// returns its error and leaves the result deferred, so a later call tries
// again; a result held across a move of the serving tier's generation fails
// every time. A whole-document result's build never fails: its Tree fails
// only when ctx ends while it waits for another call's build.
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
// so, the bytes it holds meanwhile (none for a whole-document result, a
// view). A deferred result whose tree was built holds that tree and is no
// longer deferred: it is an owned tree of Size edges.
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
// whole-document result is, over its shards; a deferred result is not.
func (r *Result) IsView() bool { return r.wholeOf() != nil || r.pending == nil && r.Doc.IsView() }

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
// sender computed by this same rule. A match climbs to the anchor, and no
// further than the least depth found so far; a depth at the floor ends the
// search. The floor is 0, or 1 for a view whose first and last matches lie
// inside the anchor and the first is not the anchor: a view's matches are a
// posting run in position order, so every match then lies inside the anchor's
// subtree, and only the first could have been the anchor itself.
func (r *Result) MatchDepth(kw string) (int, bool) {
	if r.wholeOf() != nil {
		return r.wholeDepth(kw)
	}
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
	anchor, best, floor := r.Anchor, -1, 0
	if first := ms[0]; r.IsView() && first.Start != anchor.Start && anchor.ContainsOrSelf(first) && anchor.ContainsOrSelf(ms[len(ms)-1]) {
		floor = 1
	}
	for _, m := range ms {
		var d int
		if anchor.ContainsOrSelf(m) {
			d = depthUnder(m, anchor.Start, best)
		} else { // not below the anchor
			d = max(m.Depth()-anchor.Depth(), 0)
		}
		if best < 0 || d < best {
			best = d
		}
		if best == floor {
			break
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

// WholeProjection is the ModeXSeek result anchored at the root of the whole
// document of a sharded corpus (view) whose LCA is at global position lca:
// the projection of the whole document for the matches of a query of keys
// keywords whose posting lists on shard i are lists[i] (as Whole takes them),
// built from the shards — each shard's projection below its root, the root
// kept once with every shard's kept children in shard order — into a small
// tree of its own, as projectXSeek builds it over one document. A shard root
// stands for the document root: a keyword posted at any shard's root is a
// match at every shard's, and the result's Anchor and root matches are shard
// 0's root.
func WholeProjection(view *index.Whole, lca int32, keywords []string, lists [][]*index.PostingList, cls *classify.Classification) *Result {
	rootMatch := make([]bool, len(keywords))
	for _, ls := range lists {
		for k, pl := range ls {
			rootMatch[k] = rootMatch[k] || pl.Len() > 0 && pl.Ords[0] == 0
		}
	}
	anchor := view.Node(0)
	root := &xmltree.Node{Kind: anchor.Kind, Label: anchor.Label, FromAttr: anchor.FromAttr, Origin: anchor}
	matches := make([][]*xmltree.Node, len(keywords))
	for i, ix := range view.Parts() {
		shardRoot := ix.Document().Root
		own := make([]*index.PostingList, len(keywords))
		for k, pl := range lists[i] {
			var nodes []*xmltree.Node
			if rootMatch[k] {
				nodes = append(nodes, shardRoot)
				if i == 0 {
					matches[k] = append(matches[k], anchor)
				}
			}
			for j := range pl.Len() {
				if pl.Ords[j] != 0 {
					nodes = append(nodes, pl.Nodes[j])
					matches[k] = append(matches[k], pl.Nodes[j])
				}
			}
			own[k] = index.PackNodes(nodes)
		}
		r := &Result{}
		r.OwnMatches(keywords, own)
		for _, c := range slices.Clone(projectXSeek(shardRoot, r, cls).Children) {
			xmltree.Append(root, c)
		}
	}
	r := &Result{Root: root, Doc: xmltree.NewDocument(root), Anchor: anchor, LCA: view.Node(lca)}
	packed := make([]*index.PostingList, len(keywords))
	for k := range keywords {
		packed[k] = index.PackNodes(matches[k])
	}
	r.OwnMatches(keywords, packed)
	return r
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

// anchorAt resolves the column entry of the node a result for the LCA at
// column entry at is rooted at: the nearest entity ancestor-or-self of the
// LCA when the classification knows one (XSeek's meaningful return unit —
// query results in the paper are entity-rooted, e.g. the retailer in Figure
// 1), otherwise the LCA itself. It tests each label symbol's entity flag
// (entityLabels) — the LCA's own first — climbing the index's Parent column,
// so no node is read.
func (e *Engine) anchorAt(entity []bool, at int32) int32 {
	cols := e.ix.Columns()
	for en := at; en >= 0; en = cols.Parent[en] {
		if entity[cols.Label[en]] {
			return en
		}
	}
	return at
}

// entityLabels returns, by label symbol of the engine's document, whether
// the label is an entity label under its classification: computed once per
// index and classification (index.Index.Derived), in one pass over the
// columns that reads one node per distinct label.
func (e *Engine) entityLabels() []bool {
	return e.ix.Derived(entityKey{e.cls}, func() any {
		cols := e.ix.Columns()
		var seen, entity []bool
		for i, sym := range cols.Label {
			if int(sym) >= len(seen) {
				seen = append(seen, make([]bool, int(sym)+1-len(seen))...)
				entity = append(entity, make([]bool, int(sym)+1-len(entity))...)
			}
			if !seen[sym] {
				seen[sym] = true
				entity[sym] = e.cls.OfLabel(e.doc.ByOrd(int(cols.Pos[i])).Label) == classify.Entity
			}
		}
		return entity
	}).([]bool)
}

// entityKey keys entityLabels' slot of index.Index.Derived.
type entityKey struct{ cls *classify.Classification }

// Build is step two of answering a query: it appends to dst the results of
// hits — hits Evaluate returned for ev, or any of them, as the merge's cut
// keeps — in their order. Each is a view of its anchor's subtree, or in
// ModeXSeek the trimmed projection of it; its matches are, per keyword, the
// run of the query's posting list inside the anchor's subtree
// (index.PostingList.Within). The results' headers, their views and their
// match-run bounds are cut from slabs sized for hits, allocated once a call.
func (e *Engine) Build(dst []*Result, ev *Evaluation, hits []Hit) []*Result {
	if len(hits) == 0 {
		return dst
	}
	type built struct {
		r   Result
		doc xmltree.Document
	}
	slab := make([]built, len(hits))
	runs := &matchRuns{keywords: ev.Keywords, lists: ev.Lists, bounds: make([]int32, 0, 2*len(ev.Lists)*len(hits))}
	for i, h := range hits {
		anchor, b := e.doc.ByOrd(int(h.Anchor)), &slab[i]
		r := &b.r
		*r = Result{Root: anchor, Anchor: anchor, LCA: e.doc.ByOrd(int(h.LCA)), runs: runs, at: int32(len(runs.bounds))}
		for _, pl := range runs.lists {
			lo, hi := pl.Within(anchor.Start, anchor.End)
			runs.bounds = append(runs.bounds, int32(lo), int32(hi))
		}
		if e.opts.Mode == ModeXSeek {
			r.Root = projectXSeek(anchor, r, e.cls)
			r.Doc = xmltree.NewDocument(r.Root)
		} else {
			r.Doc, r.Index = e.doc.SubtreeInto(&b.doc, anchor), e.ix
		}
		dst = append(dst, r)
	}
	return dst
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
