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
// Size accounting follows the paper's demo ("the number of edges in the
// tree", with bound 6 producing snippets like store → name, merchandises →
// clothes → category, fitting): edges connect element nodes; the text value
// of an attribute node displays inside it and is free.
package selector

import (
	"sort"

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

	// Nodes is the set of selected result-tree nodes (ancestor-closed,
	// including free text values).
	Nodes map[*xmltree.Node]bool
}

// CoveredItems returns the covered items in rank order.
func (s *Snippet) CoveredItems(il *ilist.IList) []ilist.Item {
	out := make([]ilist.Item, 0, len(s.Covered))
	for _, i := range s.Covered {
		out = append(out, il.Items[i])
	}
	return out
}

// instance is one way to witness an IList item: an element node a, plus
// optionally the text child b whose value must display. The two-pointer
// value form keeps instance lists free of per-entry allocations.
type instance struct {
	a, b *xmltree.Node
}

// deepest returns the instance's deepest node; its ancestor chain covers
// the whole instance.
func (in instance) deepest() *xmltree.Node {
	if in.b != nil {
		return in.b
	}
	return in.a
}

// tracker maintains the growing snippet tree and the evidence it exposes:
// node membership, element count, label tokens, value tokens, entity labels
// and (e, a, v) features present.
type tracker struct {
	cls      *classify.Classification
	root     *xmltree.Node // result root; owner climbs stop here
	inT      map[*xmltree.Node]bool
	tokens   map[string]bool
	labels   map[string]bool
	feats    map[features.Feature]bool
	elements int
}

func newTracker(cls *classify.Classification, root *xmltree.Node) *tracker {
	tr := &tracker{
		cls:    cls,
		root:   root,
		inT:    make(map[*xmltree.Node]bool),
		tokens: make(map[string]bool),
		labels: make(map[string]bool),
		feats:  make(map[features.Feature]bool),
	}
	tr.add(root)
	return tr
}

// clone deep-copies the tracker; the exact solver branches on clones.
func (tr *tracker) clone() *tracker {
	c := &tracker{
		cls:      tr.cls,
		root:     tr.root,
		inT:      make(map[*xmltree.Node]bool, len(tr.inT)),
		tokens:   make(map[string]bool, len(tr.tokens)),
		labels:   make(map[string]bool, len(tr.labels)),
		feats:    make(map[features.Feature]bool, len(tr.feats)),
		elements: tr.elements,
	}
	for k := range tr.inT {
		c.inT[k] = true
	}
	for k := range tr.tokens {
		c.tokens[k] = true
	}
	for k := range tr.labels {
		c.labels[k] = true
	}
	for k := range tr.feats {
		c.feats[k] = true
	}
	return c
}

// add puts one node into the tree, updating evidence. Attribute-shaped
// elements bring their text value along for free (it displays inside them).
func (tr *tracker) add(n *xmltree.Node) {
	if tr.inT[n] {
		return
	}
	tr.inT[n] = true
	switch {
	case n.IsElement():
		tr.elements++
		tr.labels[n.Label] = true
		for _, t := range index.Tokenize(n.Label) {
			tr.tokens[t] = true
		}
		if n.HasSingleTextChild() {
			tr.add(n.Children[0])
		}
	case n.IsText():
		for _, t := range index.Tokenize(n.Value) {
			tr.tokens[t] = true
		}
		if p := n.Parent; p != nil && p.HasSingleTextChild() {
			if owner := tr.cls.EntityOwnerWithin(p, tr.root); owner != nil {
				tr.feats[features.Feature{
					Type:  features.Type{Entity: owner.Label, Attr: p.Label},
					Value: n.Value,
				}] = true
			}
		}
	}
}

// covers reports whether the current tree already witnesses the item.
func (tr *tracker) covers(it ilist.Item) bool {
	switch it.Kind {
	case ilist.Keyword:
		return tr.tokens[it.Text]
	case ilist.EntityName:
		return tr.labels[it.Text]
	case ilist.ResultKey, ilist.DominantFeature:
		return tr.feats[it.Feature]
	default:
		return false
	}
}

// cost returns the number of new element edges needed to attach the
// instance to the tree, and the path nodes to add (appended to buf, which
// may be reused across calls). Free (text) nodes do not count. An
// instance's nodes form a single ancestor chain ending at its deepest
// node, so one climb from that node to the nearest tree node covers the
// whole instance; instances are within the result tree rooted at the
// tracked root, so a tree ancestor always exists.
//
// limit prunes the climb: once cost exceeds it the instance cannot win,
// and the (partial) path is meaningless. Pass a negative limit for no
// pruning.
func (tr *tracker) cost(inst instance, buf []*xmltree.Node, limit int) (int, []*xmltree.Node) {
	path := buf[:0]
	cost := 0
	for m := inst.deepest(); m != nil && !tr.inT[m]; m = m.Parent {
		path = append(path, m)
		if m.IsElement() {
			cost++
			if limit >= 0 && cost > limit {
				return cost, path
			}
		}
	}
	return cost, path
}

func (tr *tracker) addAll(path []*xmltree.Node) {
	// Add top-down so ancestors enter first (cosmetic; membership is a set).
	for i := len(path) - 1; i >= 0; i-- {
		tr.add(path[i])
	}
}

// finder enumerates item instances over one result tree. Instead of
// building a full inverted index of the result per snippet, it walks the
// tree once, collecting instances only for the keywords and entity labels
// the IList actually asks for; feature instances come straight from the
// feature statistics.
type finder struct {
	stats    *features.Stats
	keywords map[string][]instance // Keyword items, document order
	entities map[string][]instance // EntityName items, document order
}

func newFinder(doc *xmltree.Document, cls *classify.Classification, stats *features.Stats,
	il *ilist.IList) *finder {

	f := &finder{
		stats:    stats,
		keywords: make(map[string][]instance),
		entities: make(map[string][]instance),
	}
	for _, it := range il.Items {
		switch it.Kind {
		case ilist.Keyword:
			f.keywords[it.Text] = nil
		case ilist.EntityName:
			f.entities[it.Text] = nil
		}
	}
	if len(f.keywords) == 0 && len(f.entities) == 0 {
		return f
	}
	labelToks := make(map[string][]string) // per-label tokens, few labels
	doc.Root.Walk(func(n *xmltree.Node) bool {
		if !n.IsElement() {
			return true
		}
		if insts, ok := f.entities[n.Label]; ok && cls.IsEntity(n) {
			f.entities[n.Label] = append(insts, instance{a: n})
		}
		if len(f.keywords) > 0 {
			toks, ok := labelToks[n.Label]
			if !ok {
				toks = index.Tokenize(n.Label)
				labelToks[n.Label] = toks
			}
			// Label instance first, then value instances in child order —
			// the document order a posting scan produced.
			for _, t := range toks {
				insts, want := f.keywords[t]
				if !want {
					continue
				}
				// A token repeated inside one label witnesses once.
				if k := len(insts); k > 0 && insts[k-1].b == nil && insts[k-1].a == n {
					continue
				}
				f.keywords[t] = append(insts, instance{a: n})
			}
			for _, c := range n.Children {
				if !c.IsText() {
					continue
				}
				index.EachToken(c.Value, func(t string) bool {
					insts, want := f.keywords[t]
					if !want {
						return true
					}
					// A token repeated inside one value witnesses once.
					if k := len(insts); k > 0 && insts[k-1].b == c {
						return true
					}
					f.keywords[t] = append(insts, instance{a: n, b: c})
					return true
				})
			}
		}
		return true
	})
	return f
}

// instancesOf lists the ways to witness an item, in document order.
func (f *finder) instancesOf(it ilist.Item) []instance {
	switch it.Kind {
	case ilist.Keyword:
		return f.keywords[it.Text]
	case ilist.EntityName:
		return f.entities[it.Text]
	case ilist.ResultKey, ilist.DominantFeature:
		var out []instance
		for _, n := range f.stats.Instances(it.Feature) {
			if n.HasSingleTextChild() {
				out = append(out, instance{a: n, b: n.Children[0]})
			}
		}
		return out
	}
	return nil
}

// Greedy builds a snippet for the result within the edge bound.
//
// doc is the result tree (finalized); il its IList; cls the corpus
// classification; stats the feature statistics collected on this result.
func Greedy(doc *xmltree.Document, il *ilist.IList, cls *classify.Classification,
	stats *features.Stats, bound int) *Snippet {

	f := newFinder(doc, cls, stats, il)
	tr := newTracker(cls, doc.Root)
	edges := 0

	var covered, skipped []int
	var cur, bestPath []*xmltree.Node // reused across candidate evaluations
	for idx, it := range il.Items {
		if tr.covers(it) {
			covered = append(covered, idx)
			continue
		}
		bestCost := -1
		bestPath = bestPath[:0]
		for _, inst := range f.instancesOf(it) {
			var c int
			// Prune climbs at bestCost-1: anything costlier cannot win
			// (ties keep the earliest instance, as before).
			c, cur = tr.cost(inst, cur, bestCost-1)
			if bestCost < 0 || c < bestCost {
				bestCost = c
				bestPath, cur = cur, bestPath
			}
			if c == 0 {
				break // cannot do better
			}
		}
		if bestCost >= 0 && edges+bestCost <= bound {
			tr.addAll(bestPath)
			edges += bestCost
			covered = append(covered, idx)
		} else {
			skipped = append(skipped, idx)
		}
	}
	return materialize(doc, tr, covered, skipped, edges)
}

func materialize(doc *xmltree.Document, tr *tracker, covered, skipped []int, edges int) *Snippet {
	root := xmltree.ProjectSet(doc.Root, tr.inT)
	return &Snippet{
		Root:    root,
		Covered: covered,
		Skipped: skipped,
		Edges:   edges,
		Nodes:   tr.inT,
	}
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
func Exact(doc *xmltree.Document, il *ilist.IList, cls *classify.Classification,
	stats *features.Stats, bound int, cfg ExactConfig) *Snippet {

	if cfg.MaxInstancesPerItem <= 0 {
		cfg.MaxInstancesPerItem = 8
	}
	if cfg.MaxExpansions <= 0 {
		cfg.MaxExpansions = 2_000_000
	}
	f := newFinder(doc, cls, stats, il)

	type best struct {
		count   int
		weight  float64
		tr      *tracker
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
	var rec func(idx int, tr *tracker, edges int, covered, skipped []int)
	rec = func(idx int, tr *tracker, edges int, covered, skipped []int) {
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
					tr:      tr.clone(),
					covered: append([]int(nil), covered...),
					skipped: append([]int(nil), skipped...),
					edges:   edges,
				}
			}
			return
		}
		it := il.Items[idx]
		if tr.covers(it) {
			rec(idx+1, tr, edges, append(covered, idx), skipped)
			return
		}
		insts := f.instancesOf(it)
		if len(insts) > cfg.MaxInstancesPerItem {
			insts = insts[:cfg.MaxInstancesPerItem]
		}
		// Branch: each affordable instance.
		for _, inst := range insts {
			c, path := tr.cost(inst, nil, -1)
			if edges+c > bound {
				continue
			}
			child := tr.clone()
			child.addAll(path)
			rec(idx+1, child, edges+c, append(covered, idx), skipped)
		}
		// Branch: skip the item.
		rec(idx+1, tr, edges, covered, append(skipped, idx))
	}
	rec(0, newTracker(cls, doc.Root), 0, nil, nil)

	if b.count < 0 { // exhausted without completing any leaf (tiny budgets)
		return Greedy(doc, il, cls, stats, bound)
	}
	sort.Ints(b.covered)
	sort.Ints(b.skipped)
	return materialize(doc, b.tr, b.covered, b.skipped, b.edges)
}
