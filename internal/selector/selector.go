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
// An instance is a preorder position until it is climbed from. Entity and
// feature instances come from the result's statistics (features.Stats);
// keyword instances come from the posting runs inside the result when the
// statistics were folded from an index, and from a scan of the result's
// nodes when the tree has none (or is a few dozen nodes) — in the same order
// either way.
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
// evidence it exposes. Everything in it is
// keyed by integers the collection pass and the document already assigned —
// symbol ids, preorder positions, feature ids — and it is pooled, so a
// snippet allocates what it returns and little else.
//
// An instance — one way to witness an item — is represented by the preorder
// position of its deepest node, whose ancestor chain covers the whole
// instance: an element, or a text child whose value must display. A
// feature's instance is its attribute node: the single text value of an
// attribute-shaped element enters and leaves the tree with it, so the value
// itself is never climbed from. A position becomes a node only when the
// instance is climbed from.
type selection struct {
	il    *ilist.IList
	stats *features.Stats
	root  *xmltree.Node
	nodes []*xmltree.Node // the result in preorder: position p is nodes[p-base]
	base  int             // root.Ord

	// stamp marks what belongs to this snippet in memo and mark, so neither
	// is cleared between snippets.
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

	// The snippet tree: member nodes in insertion order, membership by
	// position, and the evidence — how many members show each keyword, and
	// the (entity, attribute, value) symbol triple of every member value.
	mark    []uint32
	members []*xmltree.Node
	kwCount []int32
	triples [][3]int32

	path, best []*xmltree.Node // climb buffers
	ints       []int           // materialize's scan state
}

type memoEntry struct {
	stamp uint32
	run   int32 // index into hits, or -1 when no keyword occurs
}

const scratchKeepNodes = 1 << 20

var selections = sync.Pool{New: func() any { return &selection{kwIndex: make(map[string]int32)} }}

// begin readies a selection for one result: resolves the items, finds the
// keyword instances, and seeds the snippet tree with the result root.
func begin(doc *xmltree.Document, il *ilist.IList, stats *features.Stats) *selection {
	s := selections.Get().(*selection)
	s.il, s.stats, s.root, s.nodes, s.base = il, stats, doc.Root, doc.Nodes(), doc.Root.Ord
	s.stamp++
	if s.stamp == 0 { // wrapped: stale entries could read as current
		clear(s.memo[0])
		clear(s.memo[1])
		clear(s.mark)
		s.stamp = 1
	}
	if len(s.mark) < doc.Len() {
		s.mark = make([]uint32, doc.Len())
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
		if ix := stats.Index(); ix != nil && len(s.nodes) > scanBelow {
			s.postedKeywords(ix)
		} else {
			s.scanKeywords()
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

// postedKeywords takes every keyword's instances from the run of its posting
// list inside the result, for a result that is a view of the document ix
// indexes: per posted element the element itself when its label holds the
// keyword, then those of its text children that do — which is the order
// scanKeywords finds them in, at the cost of the postings and not of the
// result. A keyword is looked up as the token it is, whether or not the
// query evaluated it as a term of its own (a phrase member is not).
func (s *selection) postedKeywords(ix *index.Index) {
	for text, k := range s.kwIndex {
		pl := ix.ListOf(text)
		lo, hi := pl.Within(s.root.Start, s.root.End)
		for j := lo; j < hi; j++ {
			if pl.Fields[j]&index.FieldLabel != 0 {
				s.kwInst[k] = append(s.kwInst[k], pl.Ords[j])
			}
			if pl.Fields[j]&index.FieldValue == 0 {
				continue
			}
			for _, c := range pl.Nodes[j].Children {
				if c.IsText() && slices.Contains(s.keywordsIn(c), k) {
					s.kwInst[k] = append(s.kwInst[k], c.Start)
				}
			}
		}
	}
}

// scanKeywords finds the keyword instances of a tree that has no index by
// reading it: per element its label, then its text children in order — the
// order the index posts them in.
func (s *selection) scanKeywords() {
	for _, n := range s.nodes {
		if !n.IsElement() {
			continue
		}
		for _, k := range s.keywordsIn(n) {
			s.kwInst[k] = append(s.kwInst[k], n.Start)
		}
		for _, c := range n.Children {
			if !c.IsText() {
				continue
			}
			for _, k := range s.keywordsIn(c) {
				s.kwInst[k] = append(s.kwInst[k], c.Start)
			}
		}
	}
}

// release returns the selection to the pool, dropping every node it holds:
// pooled scratch must not keep a replaced corpus generation reachable. Nor
// may it pin memory in proportion to a corpus of any size (the marks and
// the instance lists grow to the largest result seen): past scratchKeepNodes
// the selection is dropped instead.
func (s *selection) release() {
	if len(s.mark) > scratchKeepNodes {
		return
	}
	for k := range s.kwInst {
		s.kwInst[k] = s.kwInst[k][:0]
	}
	clear(s.members)
	clear(s.path[:cap(s.path)])
	clear(s.best[:cap(s.best)])
	clear(s.kwIndex)
	s.members, s.triples, s.hits = s.members[:0], s.triples[:0], s.hits[:0]
	s.il, s.stats, s.root, s.nodes = nil, nil, nil, nil
	selections.Put(s)
}

// keywordsIn returns the indexes of the keywords occurring in n's label
// (element) or value (text node), each once, memoized by symbol id.
func (s *selection) keywordsIn(n *xmltree.Node) []int32 {
	if len(s.kwIndex) == 0 {
		return nil
	}
	space, text := 0, n.Label
	if n.IsText() {
		space, text = 1, n.Value
	}
	memo := s.memo[space]
	if int(n.Sym) >= len(memo) {
		memo = append(memo, make([]memoEntry, int(n.Sym)+1-len(memo))...)
		s.memo[space] = memo
	}
	e := &memo[n.Sym]
	if e.stamp != s.stamp {
		e.stamp, e.run = s.stamp, -1
		run := len(s.hits)
		index.EachToken(text, func(t string) bool {
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

func (s *selection) inTree(n *xmltree.Node) bool { return s.mark[n.Ord-s.base] == s.stamp }

// add puts one node into the tree, updating evidence. Attribute-shaped
// elements bring their text value along for free (it displays inside them).
func (s *selection) add(n *xmltree.Node) {
	if s.inTree(n) {
		return
	}
	s.mark[n.Ord-s.base] = s.stamp
	s.members = append(s.members, n)
	for _, k := range s.keywordsIn(n) {
		s.kwCount[k]++
	}
	switch {
	case n.IsElement():
		if n.HasSingleTextChild() {
			s.add(n.Children[0])
		}
	case n != s.root && n.Parent.HasSingleTextChild():
		// A displayed value is the feature (owner, attribute, value),
		// the owner being the nearest entity inside the result.
		for m := n.Parent; ; m = m.Parent {
			if slices.Contains(s.stats.EntitySyms(), m.Sym) {
				s.triples = append(s.triples, [3]int32{m.Sym, n.Parent.Sym, n.Sym})
				break
			}
			if m == s.root {
				break
			}
		}
	}
}

// checkpoint and rollback let the exact solver try a branch and take it
// back: members and triples only ever grow by appending.
type checkpoint struct{ members, triples int }

func (s *selection) checkpoint() checkpoint { return checkpoint{len(s.members), len(s.triples)} }

func (s *selection) rollback(to checkpoint) {
	for _, n := range s.members[to.members:] {
		s.mark[n.Ord-s.base] = 0
		for _, k := range s.keywordsIn(n) {
			s.kwCount[k]--
		}
	}
	clear(s.members[to.members:])
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
		return slices.ContainsFunc(s.members, func(m *xmltree.Node) bool { return m.IsElement() && m.Sym == sym })
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
// instance whose deepest node is at the given position to the tree, and the path nodes to
// add (in s.path). Free (text) nodes do not count. An instance's nodes form
// a single ancestor chain ending at its deepest node, so one climb from
// that node to the nearest tree node covers the whole instance; instances
// lie inside the result and its root is in the tree, so the climb ends.
//
// limit prunes the climb: once cost exceeds it the instance cannot win,
// and the (partial) path is meaningless. Pass a negative limit for no
// pruning.
func (s *selection) cost(deepest int32, limit int) int {
	s.path = s.path[:0]
	cost := 0
	for m := s.nodes[int(deepest)-s.base]; !s.inTree(m); m = m.Parent {
		s.path = append(s.path, m)
		if m.IsElement() {
			cost++
			if limit >= 0 && cost > limit {
				return cost
			}
		}
	}
	return cost
}

// cheapest finds the instance of item i that attaches at the lowest cost,
// the earliest one on ties, leaving its path in s.best; -1 if the item has
// no instance. Climbs are pruned at limit (negative: not at all) and at the
// best cost so far — anything costlier cannot win.
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
func (s *selection) addAll(path []*xmltree.Node) {
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

	s := begin(doc, il, stats)
	defer s.release()
	edges := 0
	// Covered and skipped partition the items, so one array holds both:
	// covered fills it from the front, skipped from the back.
	part := make([]int, len(il.Items))
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
	return &Snippet{
		Root:    s.materialize(s.members),
		Covered: part[:covered:covered],
		Skipped: part[skipped:],
		Edges:   edges,
	}
}

// materialize builds the snippet tree from a member set, which is closed
// over ancestors up to the result root: sorted by preorder position, every
// member's parent is the innermost earlier member still open, so one scan
// with the chain of open members copies the tree in document order. The
// copies share one slab and their child lists one arena; Origin pointers
// lead back to the members. It sorts members in place.
func (s *selection) materialize(members []*xmltree.Node) *xmltree.Node {
	slices.SortFunc(members, func(a, b *xmltree.Node) int { return a.Ord - b.Ord })
	n := len(members)
	s.ints = append(s.ints[:0], make([]int, 3*n)...)
	parent, kids, open := s.ints[:n], s.ints[n:2*n], s.ints[2*n:2*n]
	for i, m := range members {
		for len(open) > 0 && members[open[len(open)-1]].End < m.Start {
			open = open[:len(open)-1]
		}
		if i > 0 {
			parent[i] = open[len(open)-1]
			kids[parent[i]]++
		}
		open = append(open, i)
	}
	copies := make([]xmltree.Node, n)
	arena := make([]*xmltree.Node, n-1)
	for i, m := range members {
		c := &copies[i]
		c.Kind, c.Label, c.Value, c.FromAttr, c.Origin = m.Kind, m.Label, m.Value, m.FromAttr, m
		if kids[i] > 0 {
			c.Children, arena = arena[:0:kids[i]], arena[kids[i]:]
		}
		if i > 0 {
			c.Parent = &copies[parent[i]]
			c.Parent.Children = append(c.Parent.Children, c)
		}
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

	if cfg.MaxInstancesPerItem <= 0 {
		cfg.MaxInstancesPerItem = 8
	}
	if cfg.MaxExpansions <= 0 {
		cfg.MaxExpansions = 2_000_000
	}
	s := begin(doc, il, stats)
	defer s.release()

	type best struct {
		count   int
		weight  float64
		members []*xmltree.Node
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
		return Greedy(doc, il, nil, stats, bound)
	}
	slices.Sort(b.covered)
	slices.Sort(b.skipped)
	return &Snippet{Root: s.materialize(b.members), Covered: b.covered, Skipped: b.skipped, Edges: b.edges}
}
