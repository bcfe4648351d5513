// Package search implements the XML keyword search engine substrate that
// feeds eXtract. The demo system runs on top of XSeek; any engine producing
// query-result trees works ("snippet generation is orthogonal to query
// result generation", paper §3). This package provides the standard
// machinery: SLCA computation in the style of Xu & Papakonstantinou
// (indexed lookup and scan-eager merge over packed, ord-sorted posting
// lists), ELCA computation under XRank's exclusive-count semantics (driven
// by the same shortest-list candidate stream, counting by posting-list rank
// differences over the candidates' ancestor chains), and XSeek-flavoured
// result tree construction.
//
// The hot paths work on flat integer arrays: posting lists carry their
// document-order positions in contiguous int32 slices (index.PostingList),
// and ancestor tests, containment tests and LCAs all use the preorder
// intervals assigned by xmltree.NewDocument: an LCA is the first node on a
// Parent chain whose interval covers the other position, so no depth is
// ever computed. All evaluation entry points require their input nodes to
// belong to one finalized document.
package search

import (
	"math"
	"sort"

	"extract/internal/index"
	"extract/xmltree"
)

// SLCA returns the Smallest Lowest Common Ancestors of the given keyword
// match lists: nodes whose subtree contains at least one match from every
// list and none of whose proper descendants does. Lists must be sorted in
// document order and drawn from one finalized document (index posting
// lists are). The result is in document order.
func SLCA(lists ...[]*xmltree.Node) []*xmltree.Node {
	return SLCAPacked(packLists(lists)...)
}

// packLists packs document-ordered node lists for the packed entry points.
func packLists(lists [][]*xmltree.Node) []*index.PostingList {
	packed := make([]*index.PostingList, len(lists))
	for i, l := range lists {
		packed[i] = index.PackNodes(l)
	}
	return packed
}

// SLCAPacked is SLCA over packed posting lists, the form the engine holds.
// It is SLCAPackedBounded without a result bound.
func SLCAPacked(lists ...*index.PostingList) []*xmltree.Node {
	out, _ := SLCAPackedBounded(0, lists...)
	return out
}

// gallopCost is the measured cost of one galloping probe step relative to
// one linear-merge element visit, used by the probe-mode crossover below:
// a galloping probe into a list with average inter-probe gap g costs about
// gallopCost*(log2(g)+1) linear visits, so galloping pays once
// g > gallopCost*(log2(g)+1) — an average gap of ~128 elements. Measured
// on packed int32 ord arrays via BenchmarkSLCAProbeModes: a predictable
// sequential visit retires at ~0.6–0.9ns while a gallop step (one doubling
// or one branch-free binary halving, each a data-dependent load) costs
// ~11–12ns, and the measured curves indeed cross between gap 64 (linear
// 58ns/probe vs 63) and gap 256 (183 vs 105). See PERFORMANCE.md, "The
// galloping crossover".
const gallopCost = 16

// SLCAPackedBounded is SLCAPacked with top-k early termination: when
// limit > 0, the scan stops as soon as the first limit SLCAs in document
// order are provable, and truncated reports whether the full SLCA set may
// hold more. limit <= 0 computes the full set. The returned prefix is
// byte-identical to the same prefix of the unbounded result (pinned by
// property and fuzz tests).
//
// The candidate stream (see folds) is reduced to the smallest elements
// online by slcaStack, which is also what makes early termination possible:
// once a candidate lands strictly after the stack top, everything below it
// is sealed and counts toward limit.
func SLCAPackedBounded(limit int, lists ...*index.PostingList) ([]*xmltree.Node, bool) {
	if len(lists) == 0 {
		return nil, false
	}
	for _, l := range lists {
		if l.Len() == 0 {
			return nil, false
		}
	}
	st := slcaStack{limit: limit}
	g := newFolds(lists, make([]int, len(lists)))
	for c := g.next(); c != nil; c = g.next() {
		if st.add(c) {
			break
		}
	}
	return st.results()
}

// folds is the candidate generator SLCA and ELCA evaluation share, following
// the indexed-lookup approach: iterate the shortest list; for each of its
// nodes find, in every other list, the closest match in document order
// (predecessor or successor by Ord), and fold LCAs. The folded candidate is
// the lowest ancestor-or-self of the node that contains a match of every
// list, so the nodes containing every keyword are exactly the candidates and
// their ancestors: SLCA keeps the smallest candidates (slcaStack), ELCA
// decides every node of the candidates' ancestor chains (ELCAPacked).
//
// The probes into the other lists use monotone cursors either way; when the
// shortest list is a large fraction of the total the cursor advances as a
// linear merge that touches each ord once and stays in cache, otherwise it
// gallops (exponential search + branch-free binary refinement, see gallop)
// so a skewed list costs O(log gap) per probe instead of O(gap).
type folds struct {
	lists    []*index.PostingList
	shortest int
	scan     bool  // linear cursor advance rather than galloping
	cursors  []int // per list, the probe cursor
	si       int   // next entry of the shortest list
}

// newFolds starts the candidate stream of non-empty lists; cursors is a
// zeroed buffer of one cursor per list.
func newFolds(lists []*index.PostingList, cursors []int) folds {
	// Work on the shortest list for the outer loop.
	shortest, total := 0, 0
	for i, l := range lists {
		total += l.Len()
		if l.Len() < lists[shortest].Len() {
			shortest = i
		}
	}
	// Probe-mode crossover: galloping wins when the average gap between
	// consecutive probe targets is large enough that ~gallopCost*(log2+1)
	// probe steps beat visiting every element of the gap linearly.
	n := lists[shortest].Len()
	scan := n*gallopCost*(ilog2(total/n)+1) >= total-n
	return folds{lists: lists, shortest: shortest, scan: scan, cursors: cursors}
}

// advance moves a monotone cursor over ords to the first entry >= target,
// in the stream's probe mode.
func (g *folds) advance(ords []int32, cur int, target int32) int {
	if !g.scan {
		return gallop(ords, cur, target)
	}
	for cur < len(ords) && ords[cur] < target {
		cur++
	}
	return cur
}

// next returns the candidate folded from the next node v of the shortest
// list, nil when the list is exhausted: the lowest ancestor-or-self c of v
// that contains, for every other list, that list's closest match in document
// order. The predecessor (ord < vOrd <= c.End) lies in c iff c.Start <= its
// ord, the successor (ord >= vOrd >= c.Start) iff its ord <= c.End, so the
// climb reads only the packed ords — the other lists' nodes are never
// dereferenced — and one c carries across lists because containment
// survives climbing.
func (g *folds) next() *xmltree.Node {
	s := g.lists[g.shortest]
	if g.si == len(s.Nodes) {
		return nil
	}
	c, vOrd := s.Nodes[g.si], s.Ords[g.si]
	g.si++
	for li, l := range g.lists {
		if li == g.shortest {
			continue
		}
		if c.Parent == nil {
			break // already at the root
		}
		cur := g.advance(l.Ords, g.cursors[li], vOrd)
		g.cursors[li] = cur
		// With no predecessor (successor) the sentinel makes its test
		// fail for every c.
		pred, succ := int32(-1), int32(math.MaxInt32)
		if cur > 0 {
			pred = l.Ords[cur-1]
		}
		if cur < len(l.Ords) {
			succ = l.Ords[cur]
		}
		for c.Parent != nil && c.Start > pred && succ > c.End {
			c = c.Parent
		}
	}
	return c
}

// gallop returns the smallest index i >= from with ords[i] >= target, or
// len(ords) if none: exponential search doubles a window out from the
// cursor until it straddles the target, then a binary search narrows it.
// The narrowing loop is a two-way select with no data-dependent memory
// writes, which the compiler lowers to conditional moves — no branch
// mispredictions on random gaps. Because the cursor only moves forward,
// a sequence of calls with non-decreasing targets costs O(log gap) each
// instead of O(log n).
func gallop(ords []int32, from int, target int32) int {
	n := len(ords)
	if from >= n || ords[from] >= target {
		return from
	}
	// Invariant: ords[lo] < target; hi is exclusive-capped at n.
	lo, hi, step := from, from+1, 1
	for hi < n && ords[hi] < target {
		lo = hi
		step <<= 1
		hi += step
	}
	if hi > n {
		hi = n
	}
	for hi-lo > 1 {
		mid := int(uint(lo+hi) >> 1)
		if ords[mid] < target {
			lo = mid
		} else {
			hi = mid
		}
	}
	return hi
}

// slcaStack reduces the SLCA candidate stream to the smallest elements
// online. Candidates arrive ordered by the document position of the
// shortest-list match that produced them, and every candidate contains its
// match; with the preorder intervals forming a laminar family this leaves
// exactly three cases per candidate (see add). Stack entries are mutually
// disjoint in increasing document order, and only the top entry can ever
// be popped — everything below it is sealed, which is what makes top-k
// early termination provable mid-scan.
type slcaStack struct {
	limit int // seal this many entries, then stop; 0 = unlimited
	stack []*xmltree.Node
}

// add folds candidate c into the stack and reports whether the first
// limit SLCAs are now provable (the scan can stop).
func (st *slcaStack) add(c *xmltree.Node) bool {
	for {
		if len(st.stack) == 0 {
			st.stack = append(st.stack, c)
			break
		}
		top := st.stack[len(st.stack)-1]
		if c == top {
			break // duplicate (Start is unique within a document)
		}
		if c.Start < top.Start {
			// c strictly contains top (its match lies at or after top's
			// interval, so the laminar intervals force c ⊃ top), or c
			// duplicates a sealed entry; either way a candidate at least
			// as small already exists inside c: drop c.
			break
		}
		if c.Start <= top.End {
			// top strictly contains c: not smallest. Entries below top
			// are disjoint from it, so a single pop suffices.
			st.stack = st.stack[:len(st.stack)-1]
			continue
		}
		// c lies strictly after top: push. Every entry below the new top
		// is now sealed — later candidates have matches at or after c, so
		// they can neither pop a sealed entry nor precede it.
		st.stack = append(st.stack, c)
		break
	}
	return st.limit > 0 && len(st.stack) > st.limit
}

// results returns the accumulated SLCA set (or its first limit elements)
// and whether the set was truncated by the bound.
func (st *slcaStack) results() ([]*xmltree.Node, bool) {
	if st.limit > 0 && len(st.stack) > st.limit {
		return st.stack[:st.limit], true
	}
	if len(st.stack) == 0 {
		return nil, false
	}
	return st.stack, false
}

// fastLCA returns the lowest common ancestor of two nodes of one finalized
// document: the first node on a's Parent chain whose preorder interval
// covers b. Returns nil if the nodes turn out to lie in different trees.
func fastLCA(a, b *xmltree.Node) *xmltree.Node {
	for a != nil && !a.ContainsOrSelf(b) {
		a = a.Parent
	}
	return a
}

// ilog2 returns floor(log2(n)) for n >= 1 (0 otherwise).
func ilog2(n int) int {
	l := 0
	for n > 1 {
		n >>= 1
		l++
	}
	return l
}

// smallestOnly sorts candidates in document order, removes duplicates, and
// removes every candidate that is an ancestor of another candidate, in one
// linear stack pass over the preorder intervals: in document order an
// ancestor immediately precedes its descendants' contiguous block, so the
// stack top is popped whenever its interval contains the incoming node.
// Candidates must belong to one finalized document. The input slice is
// reordered and reused for the output.
func smallestOnly(cands []*xmltree.Node) []*xmltree.Node {
	if len(cands) == 0 {
		return nil
	}
	sorted := true
	for i := 1; i < len(cands); i++ {
		if cands[i].Start < cands[i-1].Start {
			sorted = false
			break
		}
	}
	if !sorted {
		sort.Slice(cands, func(i, j int) bool { return cands[i].Start < cands[j].Start })
	}
	out := cands[:0]
	for _, c := range cands {
		if len(out) > 0 && out[len(out)-1] == c {
			continue // duplicate (Start is unique within a document)
		}
		for len(out) > 0 && out[len(out)-1].End >= c.Start {
			out = out[:len(out)-1] // stack top is an ancestor of c
		}
		out = append(out, c)
	}
	return out
}

// SLCABaseline is the pre-flattening implementation (pointer-chasing binary
// search, parent-walk LCAs and the repeat-until-stable ancestor filter).
// It is retained as the property tests' reference and the cold-query
// gate's yardstick (BenchmarkGateColdQuery, BenchmarkGateServe): frozen
// code that optimization work never touches prices one unit of SLCA work on
// the machine a gate runs on.
func SLCABaseline(lists ...[]*xmltree.Node) []*xmltree.Node {
	if len(lists) == 0 {
		return nil
	}
	for _, l := range lists {
		if len(l) == 0 {
			return nil
		}
	}
	if len(lists) == 1 {
		return smallestOnlyBaseline(append([]*xmltree.Node(nil), lists[0]...))
	}
	shortest := 0
	for i, l := range lists {
		if len(l) < len(lists[shortest]) {
			shortest = i
		}
	}
	var candidates []*xmltree.Node
	for _, v := range lists[shortest] {
		c := v
		for i, l := range lists {
			if i == shortest {
				continue
			}
			u := closestBaseline(l, c)
			c = xmltree.LCA(c, u)
			if c == nil {
				break
			}
		}
		if c != nil {
			candidates = append(candidates, c)
		}
	}
	return smallestOnlyBaseline(candidates)
}

func closestBaseline(l []*xmltree.Node, v *xmltree.Node) *xmltree.Node {
	i := sort.Search(len(l), func(i int) bool { return l[i].Ord >= v.Ord })
	var pred, succ *xmltree.Node
	if i < len(l) {
		succ = l[i]
	}
	if i > 0 {
		pred = l[i-1]
	}
	switch {
	case pred == nil:
		return succ
	case succ == nil:
		return pred
	}
	lp := xmltree.LCA(v, pred)
	ls := xmltree.LCA(v, succ)
	if lp.Depth() >= ls.Depth() {
		return pred
	}
	return succ
}

func smallestOnlyBaseline(cands []*xmltree.Node) []*xmltree.Node {
	if len(cands) == 0 {
		return nil
	}
	sort.Slice(cands, func(i, j int) bool { return cands[i].Ord < cands[j].Ord })
	cands = dedupe(cands)
	var out []*xmltree.Node
	for i := 0; i < len(cands); i++ {
		isAncestor := false
		if i+1 < len(cands) {
			isAncestor = cands[i].Contains(cands[i+1])
		}
		if !isAncestor {
			out = append(out, cands[i])
		}
	}
	for changed := true; changed; {
		changed = false
		for i := 0; i+1 < len(out); i++ {
			if out[i].Contains(out[i+1]) {
				out = append(out[:i], out[i+1:]...)
				changed = true
				break
			}
		}
	}
	return out
}

func dedupe(l []*xmltree.Node) []*xmltree.Node {
	var out []*xmltree.Node
	for _, n := range l {
		if len(out) == 0 || out[len(out)-1] != n {
			out = append(out, n)
		}
	}
	return out
}

// SLCABrute is the reference implementation used by tests: for every node,
// check whether its subtree contains a match from every list and no child
// subtree does.
func SLCABrute(doc *xmltree.Document, lists ...[]*xmltree.Node) []*xmltree.Node {
	if len(lists) == 0 {
		return nil
	}
	inList := make([]map[*xmltree.Node]bool, len(lists))
	for i, l := range lists {
		inList[i] = make(map[*xmltree.Node]bool, len(l))
		for _, n := range l {
			inList[i][n] = true
		}
	}
	containsAll := func(n *xmltree.Node) bool {
		found := make([]bool, len(lists))
		n.Walk(func(m *xmltree.Node) bool {
			for i := range lists {
				if inList[i][m] {
					found[i] = true
				}
			}
			return true
		})
		for _, f := range found {
			if !f {
				return false
			}
		}
		return true
	}
	var out []*xmltree.Node
	for _, n := range doc.Nodes() {
		if !containsAll(n) {
			continue
		}
		childHasAll := false
		for _, c := range n.Children {
			if containsAll(c) {
				childHasAll = true
				break
			}
		}
		if !childHasAll {
			out = append(out, n)
		}
	}
	return out
}
