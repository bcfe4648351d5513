// Package selector implements eXtract's Instance Selector (paper §2.4):
// given a query result tree, its ranked IList and a snippet size bound,
// select node instances covering as many IList items as possible, in rank
// order, within the bound.
//
// Maximizing the number of covered items within a bounded-size connected
// subtree is NP-hard (the paper proves this; DESIGN.md §4 sketches the
// reduction), so the production path is a greedy algorithm: walk the IList
// in rank order and, for each item not yet covered by the snippet tree,
// attach the instance whose connection cost — new element edges on the path
// to the current tree — is smallest, skipping items that no longer fit. An
// exact branch-and-bound solver is provided for small inputs to measure the
// greedy's quality (experiment E7).
//
// An instance is a preorder position, and so is every node the snippet tree
// takes: a position becomes a node only where a label or a value is read.
// Positions are those of the result's space (features.Stats.Space), an
// interval of an index.Whole, or a tree's own when it has no index. A climb
// runs on the element columns of the part it starts in. Entity and feature
// instances come from the result's statistics; keyword instances from each
// part's posting runs inside the result, or from a scan of the result when
// it has no index or is a few dozen nodes — in the same order either way.
//
// Size accounting follows the paper's demo ("the number of edges in the
// tree", with bound 6 producing snippets like store → name, merchandises →
// clothes → category, fitting): edges connect element nodes; the text value
// of an attribute node displays inside it and is free.
package selector

import (
	"slices"
	"sync"

	"extract/internal/classify"
	"extract/internal/features"
	"extract/internal/ilist"
	"extract/internal/index"
	"extract/xmltree"
)

// Snippet is a generated result snippet.
type Snippet struct {
	// Root is the snippet tree, an independent projection of the result
	// tree (Origin pointers lead back to it).
	Root *xmltree.Node

	// Covered and Skipped partition the IList item indexes: Covered items
	// are visible in the snippet, Skipped items did not fit (or had no
	// instance in the result).
	Covered []int
	Skipped []int

	// Edges is the snippet size: the number of element-to-element edges.
	Edges int
}

// selection is the working state of one snippet: where the IList's items
// can be witnessed in the result, and the growing snippet tree with the
// evidence it exposes. Everything in it is keyed by integers the collection
// pass and the document already assigned — symbol ids, preorder positions,
// feature ids — and it is pooled, so a snippet allocates what it returns and
// little else.
//
// An instance — one way to witness an item — is represented by the preorder
// position of its deepest node, whose ancestor chain covers the whole
// instance: an element, or a text child whose value must display. A
// feature's instance is its attribute node: the single text value of an
// attribute-shaped element enters and leaves the tree with it, so the value
// itself is never climbed from.
type selection struct {
	il    *ilist.IList
	stats *features.Stats
	// The result is the interval [root, end] of space, nil for a tree that
	// has no index, whose columns tree points at: the ones the statistics'
	// fold read (features.Stats.Columns), or else own, filled here.
	space     *index.Whole
	root, end int32
	tree      *index.Columns
	own       index.Columns

	// stamp marks what belongs to this snippet in memo, so it is not cleared
	// between snippets.
	stamp uint32

	// Keywords: the distinct Keyword items, each with its instances in
	// document order, and per symbol id which of them its string contains
	// (memo[0] by label id, memo[1] by value id) — a label or value is
	// tokenized once per snippet however many nodes carry it. A memo entry
	// points at a run of hits: a count, then that many keyword indexes.
	kwIndex map[string]int32
	kwInst  [][]int32
	memo    [2][]memoEntry
	hits    []int32

	// ref resolves each IList item once: a keyword index, an entity index
	// of stats, or a feature id; -1 for an item the result cannot witness.
	ref []int32

	// The snippet tree: member positions in insertion order, and the
	// evidence — how many members show each keyword, and the (entity,
	// attribute, value) symbol triple of every member value.
	members []int32
	kwCount []int32
	triples [][3]int32

	path, best []int32 // climb buffers
	part       []int   // GreedySelection's covered and skipped items
	done       Selection
	// copies and arena are the storage of the snippet tree Tree builds,
	// reused from one selection to the next.
	copies []xmltree.Node
	arena  []*xmltree.Node
	// cursor is the column entry the last climb started from, in part
	// part, and run the result's entries in part 0 (entry).
	cursor struct{ part, at int }
	run    struct{ lo, hi int }
	ints   []int  // shape's child counts
	tok    []byte // keywordsIn's token buffer (index.EachTokenIn)
}

type memoEntry struct {
	stamp uint32
	run   int32 // index into hits, or -1 when no keyword occurs
}

const scratchKeepNodes = 1 << 20

var selections = sync.Pool{New: func() any { return &selection{kwIndex: make(map[string]int32)} }}

// begin readies a selection for one result: resolves the items, finds the
// keyword instances, and seeds the snippet tree with the result root. doc is
// the result's tree, read only when it has no index.
func begin(doc *xmltree.Document, il *ilist.IList, stats *features.Stats) *selection {
	s := selections.Get().(*selection)
	s.il, s.stats = il, stats
	s.space, s.root, s.end = stats.Space()
	s.cursor.part = -1
	s.run.lo, s.run.hi = stats.Run()
	if s.space == nil {
		if s.tree = stats.Columns(); s.tree == nil {
			s.own.Fill(doc.Nodes())
			s.tree = &s.own
		}
	}
	s.stamp++
	if s.stamp == 0 { // wrapped: stale entries could read as current
		clear(s.memo[0])
		clear(s.memo[1])
		s.stamp = 1
	}

	s.ref = s.ref[:0]
	for _, it := range il.Items {
		ref := int32(-1)
		switch it.Kind {
		case ilist.Keyword:
			k, ok := s.kwIndex[it.Text]
			if !ok {
				k = int32(len(s.kwIndex))
				s.kwIndex[it.Text] = k
			}
			ref = k
		case ilist.EntityName:
			ref = int32(slices.Index(stats.EntityLabels(), it.Text))
		case ilist.ResultKey, ilist.DominantFeature:
			ref = it.FeatureID
		}
		s.ref = append(s.ref, ref)
	}
	for len(s.kwInst) < len(s.kwIndex) {
		s.kwInst = append(s.kwInst, nil)
	}
	s.kwCount = append(s.kwCount[:0], make([]int32, len(s.kwIndex))...)

	if len(s.kwIndex) > 0 {
		if s.space == nil || s.end-s.root < scanBelow {
			s.scanKeywords()
		} else {
			s.postedKeywords()
		}
	}
	s.add(s.root)
	return s
}

// scanBelow is the result size up to which the keyword instances of an
// indexed result are still found by the scan: a lookup costs a hash and two
// binary searches per keyword — some thirty probes into lists far longer
// than the result — and reading a few dozen adjacent nodes costs less (on
// 7-node results of the benchmark corpus the lookups read 0.8 µs a snippet
// against the scan's 0.2). The two finders agree on every result of any size
// (TestKeywordInstancesFromPostings), so the threshold moves cost only.
const scanBelow = 32

// postedKeywords takes every keyword's instances from the runs of its
// posting lists inside the result, part by part: per posted element the
// element itself when its label holds the keyword, then those of its text
// children that do — the order scanKeywords finds them in, at the cost of the
// postings and not of the result. The root, whose copy heads the run of every
// part that holds it, comes first: its label, then its text children. A
// keyword is looked up as the token it is, whether or not the query
// evaluated it as a term of its own (a phrase member is not).
func (s *selection) postedKeywords() {
	w := s.space
	for text, k := range s.kwIndex {
		var root index.MatchField // what the root's copies are posted for
		for i, ix := range w.Parts() {
			pl := ix.ListOf(text)
			lo, hi := pl.Within(s.root-w.Offset(i), s.end-w.Offset(i))
			if lo < hi && w.Global(i, pl.Ords[lo]) == s.root {
				root |= pl.Fields[lo]
				lo++
			}
			for j := lo; j < hi; j++ {
				p := w.Global(i, pl.Ords[j])
				if pl.Fields[j]&index.FieldLabel != 0 {
					s.kwInst[k] = append(s.kwInst[k], p)
				}
				if pl.Fields[j]&index.FieldValue != 0 {
					s.textsIn(w.Offset(i), pl.Nodes[j], k)
				}
			}
		}
		others := len(s.kwInst[k])
		if root&index.FieldLabel != 0 {
			s.kwInst[k] = append(s.kwInst[k], s.root)
		}
		if root&index.FieldValue != 0 {
			s.texts(s.root, s.stats.Node(s.root), k)
		}
		if inst := s.kwInst[k]; len(inst) > others { // rotate the root's to the front
			slices.Reverse(inst[:others])
			slices.Reverse(inst[others:])
			slices.Reverse(inst)
		}
	}
}

// scanKeywords finds the keyword instances by reading the result: per
// element its label, then its text children in order — the order the index
// posts them in.
func (s *selection) scanKeywords() {
	for p := s.root; p <= s.end; p++ {
		if n := s.stats.Node(p); n.IsElement() {
			s.instance(p, n, -1)
			s.texts(p, n, -1)
		}
	}
}

// texts adds the text children of n, the element at p, to the instances of
// keyword k, or of every keyword when k is negative, that their values hold.
// Inside a part, positions differ from the part's own by one offset; the
// document root has a copy in every part of a space, each holding some of
// its children.
func (s *selection) texts(p int32, n *xmltree.Node, k int32) {
	if p != 0 || s.space == nil {
		s.textsIn(p-n.Start, n, k)
		return
	}
	for i, ix := range s.space.Parts() {
		s.textsIn(s.space.Offset(i), ix.Document().Root, k)
	}
}

// textsIn is texts for n in a part whose positions are its own plus off.
func (s *selection) textsIn(off int32, n *xmltree.Node, k int32) {
	for _, c := range n.Children {
		if c.IsText() {
			s.instance(off+c.Start, c, k)
		}
	}
}

// instance adds position p, whose node is n, to the instances of keyword k
// — of every keyword when k is negative — when n's label (an element) or
// value (a text node) holds it.
func (s *selection) instance(p int32, n *xmltree.Node, k int32) {
	for _, kk := range s.keywordsIn(n, s.stats.Sym(p, n)) {
		if k < 0 || kk == k {
			s.kwInst[kk] = append(s.kwInst[kk], p)
		}
	}
}

// release returns the selection to the pool, dropping every node it holds:
// pooled scratch must not keep a replaced corpus generation reachable. Nor
// may it pin memory in proportion to a corpus of any size (the instance
// lists grow to the largest result seen): past scratchKeepNodes instances
// the selection is dropped instead.
func (s *selection) release() {
	held := 0
	for _, inst := range s.kwInst {
		held += cap(inst)
	}
	if held > scratchKeepNodes {
		return
	}
	for k := range s.kwInst {
		s.kwInst[k] = s.kwInst[k][:0]
	}
	clear(s.kwIndex)
	s.members, s.triples, s.hits = s.members[:0], s.triples[:0], s.hits[:0]
	s.il, s.stats, s.space, s.tree = nil, nil, nil, nil
	clear(s.copies)
	selections.Put(s)
}

// keywordsIn returns the indexes of the keywords occurring in n's label
// (element) or value (text node), each once, memoized by its symbol id sym.
func (s *selection) keywordsIn(n *xmltree.Node, sym int32) []int32 {
	if len(s.kwIndex) == 0 {
		return nil
	}
	space, text := 0, n.Label
	if n.IsText() {
		space, text = 1, n.Value
	}
	memo := s.memo[space]
	if int(sym) >= len(memo) {
		memo = append(memo, make([]memoEntry, int(sym)+1-len(memo))...)
		s.memo[space] = memo
	}
	e := &memo[sym]
	if e.stamp != s.stamp {
		e.stamp, e.run = s.stamp, -1
		run := len(s.hits)
		index.EachTokenIn(text, &s.tok, func(t string) bool {
			k, ok := s.kwIndex[t]
			if !ok {
				return true
			}
			if e.run < 0 {
				e.run = int32(run)
				s.hits = append(s.hits, 0)
			}
			if !slices.Contains(s.hits[run+1:], k) {
				s.hits = append(s.hits, k)
				s.hits[run]++
			}
			return true
		})
	}
	if e.run < 0 {
		return nil
	}
	return s.hits[e.run+1 : e.run+1+s.hits[e.run]]
}

// inTree reports whether the node at position p is in the snippet tree. The
// tree is as small as the snippet — a node or two an edge of the bound — so
// its members are scanned: membership costs nothing to set up or take back,
// whatever the size of the result.
func (s *selection) inTree(p int32) bool { return slices.Contains(s.members, p) }

// parent returns the position of the parent of n, the node at position p
// below the root. Positions inside one part of a space differ from the
// part's own by one offset, and every part's root is at 0 (index.Whole).
func parent(p int32, n *xmltree.Node) int32 {
	if n.Parent.Start == 0 {
		return 0
	}
	return p - n.Start + n.Parent.Start
}

// holdsValue reports whether n, the element at position p, holds exactly one
// child, a text node, which displays inside it. The document root has a copy
// in every part of a space, each holding some of its children.
func (s *selection) holdsValue(p int32, n *xmltree.Node) bool {
	if p != 0 || s.space == nil {
		return n.HasSingleTextChild()
	}
	var only *xmltree.Node
	kids := 0
	for _, ix := range s.space.Parts() {
		c := ix.Document().Root.Children
		if kids += len(c); len(c) == 1 {
			only = c[0]
		}
	}
	return kids == 1 && only.IsText()
}

// endOf returns the largest position in the subtree of the node at p.
func (s *selection) endOf(p int32) int32 {
	if p == s.root {
		return s.end
	}
	n := s.stats.Node(p)
	return p + n.End - n.Start
}

// add puts the node at position p into the tree, updating evidence.
// Attribute-shaped elements bring their text value along for free (it
// displays inside them, at the next position).
func (s *selection) add(p int32) {
	if s.inTree(p) {
		return
	}
	s.members = append(s.members, p)
	n := s.stats.Node(p)
	for _, k := range s.keywordsIn(n, s.stats.Sym(p, n)) {
		s.kwCount[k]++
	}
	switch {
	case n.IsElement():
		if s.holdsValue(p, n) {
			s.add(p + 1)
		}
	case p != s.root && s.holdsValue(parent(p, n), n.Parent):
		// A displayed value is the feature (owner, attribute, value),
		// the owner being the nearest entity inside the result.
		attr := parent(p, n)
		for m := attr; ; {
			mn := s.stats.Node(m)
			if sym := s.stats.Sym(m, mn); slices.Contains(s.stats.EntitySyms(), sym) {
				s.triples = append(s.triples, [3]int32{sym, s.stats.Sym(attr, n.Parent), s.stats.Sym(p, n)})
				break
			}
			if m == s.root {
				break
			}
			m = parent(m, mn)
		}
	}
}

// checkpoint and rollback let the exact solver try a branch and take it
// back: members and triples only ever grow by appending.
type checkpoint struct{ members, triples int }

func (s *selection) checkpoint() checkpoint { return checkpoint{len(s.members), len(s.triples)} }

func (s *selection) rollback(to checkpoint) {
	for _, p := range s.members[to.members:] {
		n := s.stats.Node(p)
		for _, k := range s.keywordsIn(n, s.stats.Sym(p, n)) {
			s.kwCount[k]--
		}
	}
	s.members, s.triples = s.members[:to.members], s.triples[:to.triples]
}

// covers reports whether the current tree already witnesses item i.
func (s *selection) covers(i int) bool {
	ref := s.ref[i]
	if ref < 0 {
		return false
	}
	switch s.il.Items[i].Kind {
	case ilist.Keyword:
		return s.kwCount[ref] > 0
	case ilist.EntityName:
		sym := s.stats.EntitySyms()[ref]
		return slices.ContainsFunc(s.members, func(p int32) bool {
			n := s.stats.Node(p)
			return n.IsElement() && s.stats.Sym(p, n) == sym
		})
	default:
		e, a, v := s.stats.FeatureSyms(ref)
		return slices.Contains(s.triples, [3]int32{e, a, v})
	}
}

// instances lists the ways to witness item i, in document order.
func (s *selection) instances(i int) []int32 {
	ref := s.ref[i]
	if ref < 0 {
		return nil
	}
	switch s.il.Items[i].Kind {
	case ilist.Keyword:
		return s.kwInst[ref]
	case ilist.EntityName:
		return s.stats.EntityInstances(int(ref))
	default:
		return s.stats.InstancesOf(ref)
	}
}

// cost returns the number of new element edges needed to attach the
// instance whose deepest node is at the given position to the tree, and the
// path nodes to add (in s.path). Free (text) nodes do not count. An
// instance's nodes form a single ancestor chain ending at its deepest node,
// so one climb from that node to the nearest tree node covers the whole
// instance; instances lie inside the result and its root is in the tree, so
// the climb ends. It never leaves the part of its deepest node, and above a
// text instance it is a climb of elements, so it runs on the part's columns.
//
// limit prunes the climb: once cost exceeds it the instance cannot win,
// and the (partial) path is meaningless. Pass a negative limit for no
// pruning.
func (s *selection) cost(deepest int32, limit int) int {
	s.path = s.path[:0]
	if s.inTree(deepest) {
		return 0
	}
	i, local, cols := 0, deepest, s.tree
	if s.space != nil {
		i, local = s.space.Locate(deepest)
		cols = s.space.Parts()[i].Columns()
	}
	off := deepest - local
	at, element := s.entry(i, cols, local)
	if !element { // a text instance: free, and its parent is an element
		s.path = append(s.path, deepest)
		// Unless content is mixed, the parent is the element just before.
		if parent := int32(s.stats.Node(deepest).Parent.Ord); at == 0 || cols.Pos[at-1] != parent {
			at, _ = s.entry(i, cols, parent)
		} else {
			at--
		}
	}
	cost := 0
	for e := int32(at); ; e = cols.Parent[e] {
		p := cols.Pos[e]
		if p != 0 {
			p += off
		}
		if s.inTree(p) {
			return cost
		}
		s.path = append(s.path, p)
		if cost++; limit >= 0 && cost > limit {
			return cost
		}
	}
}

// entry returns the entry of part i's columns at local position pos, and
// whether pos is an element's (when not, where it would be). An item's
// instances come in document order, so the search gallops forward from the
// entry the last call found, and starts over only when pos lies behind it —
// in the root's part, over the result's run of entries alone.
func (s *selection) entry(i int, cols *index.Columns, pos int32) (int, bool) {
	lo, hi := 0, len(cols.Pos)
	if i == 0 {
		lo, hi = s.run.lo, min(hi, s.run.hi)
	}
	if s.cursor.part == i && s.cursor.at < hi && cols.Pos[s.cursor.at] <= pos {
		lo = s.cursor.at
		step := 1
		for lo+step < hi && cols.Pos[lo+step] < pos {
			lo += step
			step *= 2
		}
		hi = min(hi, lo+step+1)
	}
	n, found := slices.BinarySearch(cols.Pos[lo:hi], pos)
	s.cursor.part, s.cursor.at = i, lo+n
	return lo + n, found
}

// cheapest finds the instance of item i that attaches at the lowest cost,
// the earliest one on ties, leaving its path in s.best; -1 if the item has
// no instance, or none can cost limit or less. Climbs are pruned at limit
// (negative: not at all) and at the best cost so far — anything costlier
// cannot win.
func (s *selection) cheapest(i, limit int) int {
	bestCost := -1
	s.best = s.best[:0]
	// An entity's or a feature's instance is an element, which costs an
	// edge unless it is in the tree — and one in the tree shows the item,
	// which the caller checked (covers). Only a keyword can attach free:
	// its instance may be a text child of a member.
	floor := 1
	if s.il.Items[i].Kind == ilist.Keyword {
		floor = 0
	}
	if limit >= 0 && limit < floor {
		return -1 // every instance costs more than is left
	}
	for _, n := range s.instances(i) {
		prune := limit
		if bestCost >= 0 && (limit < 0 || bestCost-1 < limit) {
			prune = bestCost - 1
		}
		if c := s.cost(n, prune); bestCost < 0 || c < bestCost {
			bestCost = c
			s.best, s.path = s.path, s.best
		}
		if bestCost == floor {
			break // cannot do better
		}
	}
	return bestCost
}

// addAll adds a climbed path top-down, so ancestors enter first.
func (s *selection) addAll(path []int32) {
	for i := len(path) - 1; i >= 0; i-- {
		s.add(path[i])
	}
}

// Greedy builds a snippet for the result within the edge bound.
//
// doc is the result tree (finalized); il its IList and stats the feature
// statistics, both built on this result. cls is not read (the categories
// the selector needs travel in stats); it stays only because the
// repository benchmark's per-layer probe calls Greedy with it.
func Greedy(doc *xmltree.Document, il *ilist.IList, cls *classify.Classification,
	stats *features.Stats, bound int) *Snippet {

	return GreedySelection(doc, il, stats, bound).Snippet()
}

// GreedySelection is Greedy without the snippet tree: the selection as it
// ends, which the caller reads and releases (Selection).
func GreedySelection(doc *xmltree.Document, il *ilist.IList, stats *features.Stats, bound int) *Selection {
	s := begin(doc, il, stats)
	edges := 0
	// Covered and skipped partition the items, so one array holds both:
	// covered fills it from the front, skipped from the back.
	part := append(s.part[:0], make([]int, len(il.Items))...)
	s.part = part
	covered, skipped := 0, len(part)
	for idx := range il.Items {
		if s.covers(idx) {
			part[covered] = idx
			covered++
			continue
		}
		// An instance dearer than what is left of the bound cannot be
		// taken, so its climb stops there.
		if c := s.cheapest(idx, bound-edges); c >= 0 && edges+c <= bound {
			s.addAll(s.best)
			edges += c
			part[covered] = idx
			covered++
		} else {
			skipped--
			part[skipped] = idx
		}
	}
	slices.Reverse(part[skipped:])
	return s.finish(part[:covered:covered], part[skipped:], edges)
}

// Selection is a finished selection before any tree is made of it: the
// snippet's nodes in preorder with their child counts (Len, Node — what a
// snippet record lists), the IList items it covers and skips, in increasing
// order, and its size in edges. It is the pooled working state of the
// selection that made it: its nodes are the result's, its slices scratch,
// and all of it is valid until Release or Snippet.
type Selection struct {
	s                *selection
	Covered, Skipped []int
	Edges            int
}

// finish sorts the members into preorder, works out each one's child count
// (shape), and returns the selection's result.
func (s *selection) finish(covered, skipped []int, edges int) *Selection {
	s.shape()
	s.done = Selection{s: s, Covered: covered, Skipped: skipped, Edges: edges}
	return &s.done
}

// Len returns the number of snippet nodes.
func (x *Selection) Len() int { return len(x.s.members) }

// Node returns the i-th snippet node in preorder — a node of the result —
// and the number of its children in the snippet.
func (x *Selection) Node(i int) (*xmltree.Node, int) {
	return x.s.stats.Node(x.s.members[i]), x.s.ints[i]
}

// Release returns the selection's scratch to the pool.
func (x *Selection) Release() { x.s.release() }

// Snippet materializes the selection as a snippet of its own — the tree
// copied, the covered and skipped items in one new array — and releases it.
func (x *Selection) Snippet() *Snippet {
	part := make([]int, len(x.Covered)+len(x.Skipped))
	c := copy(part, x.Covered)
	copy(part[c:], x.Skipped)
	sn := &Snippet{Root: x.s.owned(), Covered: part[:c:c], Skipped: part[c:], Edges: x.Edges}
	x.Release()
	return sn
}

// Tree materializes the snippet tree as Snippet does, into storage the
// selection keeps: what a served snippet's XML is rendered from. The tree is
// valid until Release, which drops its nodes; nothing may keep any of them.
func (x *Selection) Tree() *xmltree.Node {
	s := x.s
	n := len(s.members)
	if cap(s.copies) < n {
		s.copies, s.arena = make([]xmltree.Node, n), make([]*xmltree.Node, n)
	}
	s.copies = s.copies[:n]
	return s.materialize(s.copies, s.arena[:n-1])
}

// shape sorts the member set, which is closed over ancestors up to the
// result root, into preorder, and counts every member's children (s.ints):
// sorted by position, a member's parent is the innermost earlier member
// still open, so one scan with the chain of open members finds them all.
func (s *selection) shape() {
	members := s.members
	slices.Sort(members)
	n := len(members)
	s.ints = append(s.ints[:0], make([]int, 2*n)...)
	kids, open := s.ints[:n], s.ints[n:n]
	for i, m := range members {
		for len(open) > 0 && s.endOf(members[open[len(open)-1]]) < m {
			open = open[:len(open)-1]
		}
		if i > 0 {
			kids[open[len(open)-1]]++
		}
		open = append(open, i)
	}
}

// owned materializes the snippet tree into storage of its own: one slab of
// nodes, one arena of child lists.
func (s *selection) owned() *xmltree.Node {
	n := len(s.members)
	return s.materialize(make([]xmltree.Node, n), make([]*xmltree.Node, n-1))
}

// materialize copies the shaped member set (shape) into a snippet tree in
// document order, one node of copies a member, linked (xmltree.Linker) with
// every child list carved from arena (a member less long). Origin pointers
// lead back to the members.
func (s *selection) materialize(copies []xmltree.Node, arena []*xmltree.Node) *xmltree.Node {
	link := xmltree.NewLinker(arena)
	for i, p := range s.members {
		m, c := s.stats.Node(p), &copies[i]
		*c = xmltree.Node{Kind: m.Kind, Label: m.Label, Value: m.Value, FromAttr: m.FromAttr, Origin: m}
		_ = link.Link(c, s.ints[i]) // shape counted the children: linking cannot fail
	}
	return &copies[0]
}

// ExactConfig bounds the exact solver's search; zero values choose the
// defaults shown.
type ExactConfig struct {
	// MaxInstancesPerItem caps the branching factor (default 8).
	MaxInstancesPerItem int
	// MaxExpansions caps total search-tree nodes (default 2,000,000);
	// the solver returns the best found when exhausted.
	MaxExpansions int
}

// Exact maximizes the number of covered IList items within the bound by
// branch and bound over the instance choices, in IList rank order. Ties
// between solutions covering equally many items break toward covering
// higher-ranked items. Exponential in the worst case: use on small results
// only (the E7 experiment measures greedy quality against it).
func Exact(doc *xmltree.Document, il *ilist.IList, stats *features.Stats, bound int,
	cfg ExactConfig) *Snippet {

	return ExactSelection(doc, il, stats, bound, cfg).Snippet()
}

// ExactSelection is Exact without the snippet tree: the selection as it
// ends, which the caller reads and releases (Selection).
func ExactSelection(doc *xmltree.Document, il *ilist.IList, stats *features.Stats, bound int,
	cfg ExactConfig) *Selection {

	if cfg.MaxInstancesPerItem <= 0 {
		cfg.MaxInstancesPerItem = 8
	}
	if cfg.MaxExpansions <= 0 {
		cfg.MaxExpansions = 2_000_000
	}
	s := begin(doc, il, stats)

	type best struct {
		count   int
		weight  float64
		members []int32
		covered []int
		skipped []int
		edges   int
	}
	var b best
	b.count = -1

	weightOf := func(covered []int) float64 {
		w := 0.0
		for _, i := range covered {
			w += 1.0 / float64(1+i)
		}
		return w
	}

	expansions := 0
	var rec func(idx, edges int, covered, skipped []int)
	rec = func(idx, edges int, covered, skipped []int) {
		expansions++
		if expansions > cfg.MaxExpansions {
			return
		}
		// Upper bound: everything remaining gets covered.
		if len(covered)+(len(il.Items)-idx) < b.count {
			return
		}
		if idx == len(il.Items) {
			w := weightOf(covered)
			if len(covered) > b.count || (len(covered) == b.count && w > b.weight) {
				b = best{
					count:   len(covered),
					weight:  w,
					members: slices.Clone(s.members),
					covered: slices.Clone(covered),
					skipped: slices.Clone(skipped),
					edges:   edges,
				}
			}
			return
		}
		if s.covers(idx) {
			rec(idx+1, edges, append(covered, idx), skipped)
			return
		}
		insts := s.instances(idx)
		if len(insts) > cfg.MaxInstancesPerItem {
			insts = insts[:cfg.MaxInstancesPerItem]
		}
		// Branch: each affordable instance, taken back afterwards.
		for _, n := range insts {
			c := s.cost(n, -1)
			if edges+c > bound {
				continue
			}
			before := s.checkpoint()
			s.addAll(s.path)
			rec(idx+1, edges+c, append(covered, idx), skipped)
			s.rollback(before)
		}
		// Branch: skip the item.
		rec(idx+1, edges, covered, append(skipped, idx))
	}
	rec(0, 0, nil, nil)

	if b.count < 0 { // exhausted without completing any leaf (tiny budgets)
		s.release()
		return GreedySelection(doc, il, stats, bound)
	}
	slices.Sort(b.covered)
	slices.Sort(b.skipped)
	s.members = append(s.members[:0], b.members...)
	return s.finish(b.covered, b.skipped, b.edges)
}
