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
// and the LCA evaluation climbs the document's elements as the index's
// pointer-free columns (index.Columns: preorder position, subtree end and
// parent entry per element), using the preorder intervals assigned by
// xmltree.NewDocument: an LCA is the first entry on a Parent chain whose
// interval covers the other position, so no depth is ever computed and no
// node is dereferenced until the LCA set is mapped back to its nodes, once,
// at the end. All evaluation entry points require their input nodes to be
// elements of one finalized document.
package search

import (
	"math"
	"slices"
	"sort"
	"sync"

	"extract/internal/index"
	"extract/xmltree"
)

// SLCAPacked returns the Smallest Lowest Common Ancestors of the keyword
// match lists — packed posting lists of ix's document, the form the engine
// holds: the elements whose subtree contains at least one match from every
// list and none of whose proper descendants does, in document order. It is
// SLCAPackedBounded without a result bound.
func SLCAPacked(ix *index.Index, lists ...*index.PostingList) []*xmltree.Node {
	out, _ := SLCAPackedBounded(ix, 0, lists...)
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
// is sealed and counts toward limit. Both run on ix's columns; the SLCAs
// are mapped to their nodes at the end, the only nodes read.
func SLCAPackedBounded(ix *index.Index, limit int, lists ...*index.PostingList) ([]*xmltree.Node, bool) {
	return slcaPacked(ix, limit, lists, nodesOf)
}

// slcaPacked is SLCAPackedBounded handing the SLCAs — entries of ix's
// columns, in pooled scratch — to take, whose answer it returns.
func slcaPacked[T any](ix *index.Index, limit int, lists []*index.PostingList, take func(*index.Index, []int32) T) (slcas T, truncated bool) {
	if len(lists) == 0 {
		return slcas, false
	}
	for _, l := range lists {
		if l.Len() == 0 {
			return slcas, false
		}
	}
	cols := ix.Columns()
	sc := lcaPool.Get().(*lcaScratch)
	defer lcaPool.Put(sc)
	sc.start(cols, lists)
	st := slcaStack{limit: limit, pos: cols.Pos, end: cols.End, stack: sc.out[:0]}
	for c := sc.next(); c >= 0; c = sc.next() {
		if st.add(c) {
			break
		}
	}
	sc.out, sc.folds = st.stack, folds{} // the pool must not pin the lists or columns
	entries, truncated := st.results()
	return take(ix, entries), truncated
}

// nodesOf maps entries of ix's columns to their nodes: the evaluation's one
// allocation, exactly sized.
func nodesOf(ix *index.Index, entries []int32) []*xmltree.Node {
	if len(entries) == 0 {
		return nil
	}
	doc, pos := ix.Document(), ix.Columns().Pos
	out := make([]*xmltree.Node, len(entries))
	for i, e := range entries {
		out[i] = doc.ByOrd(int(pos[e]))
	}
	return out
}

// entriesOf copies entries out of the scratch: the evaluation's one
// allocation, exactly sized, half a node pointer an LCA.
func entriesOf(_ *index.Index, entries []int32) []int32 {
	if len(entries) == 0 {
		return nil
	}
	return slices.Clone(entries)
}

// folds is the candidate generator SLCA and ELCA evaluation share, following
// the indexed-lookup approach: iterate the shortest list; for each of its
// entries find, in every other list, the closest match in document order
// (predecessor or successor by Ord), and fold LCAs. The folded candidate is
// the lowest ancestor-or-self of the entry that contains a match of every
// list, so the elements containing every keyword are exactly the candidates
// and their ancestors: SLCA keeps the smallest candidates (slcaStack), ELCA
// decides every element of the candidates' ancestor chains (ELCAPacked).
//
// Candidates are entries of the document's columns (index.Columns), not
// nodes: the fold climbs the Parent column and tests the Pos and End
// columns, so it reads no node at all. A shortest-list entry enters the
// columns through a monotone cursor over Pos — every posting is an element,
// so its position is there exactly.
//
// Every cursor — the probes into the other lists, and the column cursor —
// advances as a linear merge that touches each position once and stays in
// cache when the shortest list is a large fraction of what it walks,
// otherwise it gallops (exponential search + branch-free binary refinement,
// see gallop) so a sparse walk costs O(log gap) per probe instead of
// O(gap).
type folds struct {
	lists    []*index.PostingList
	cols     *index.Columns
	shortest int
	scan     bool  // linear cursor advance into the lists rather than galloping
	colScan  bool  // the same for the column cursor
	cursors  []int // per list, the probe cursor; the shortest list's is the column cursor
	si       int   // next entry of the shortest list
}

// newFolds starts the candidate stream of non-empty lists over their
// document's columns; cursors is a zeroed buffer of one cursor per list.
func newFolds(cols *index.Columns, lists []*index.PostingList, cursors []int) folds {
	// Work on the shortest list for the outer loop.
	shortest, total := 0, 0
	for i, l := range lists {
		total += l.Len()
		if l.Len() < lists[shortest].Len() {
			shortest = i
		}
	}
	n := lists[shortest].Len()
	return folds{
		lists: lists, cols: cols, shortest: shortest, cursors: cursors,
		scan: scanPays(n, total), colScan: scanPays(n, cols.Len()+n),
	}
}

// scanPays is the probe-mode crossover for n probes into a walk of
// total-n positions: galloping wins when the average gap between
// consecutive probe targets is large enough that ~gallopCost*(log2+1)
// probe steps beat visiting every position of the gap linearly.
func scanPays(n, total int) bool {
	return n*gallopCost*(ilog2(total/n)+1) >= total-n
}

// advance moves a monotone cursor over ords to the first entry >= target,
// linearly when scan is set, by galloping otherwise.
func advance(scan bool, ords []int32, cur int, target int32) int {
	if !scan {
		return gallop(ords, cur, target)
	}
	for cur < len(ords) && ords[cur] < target {
		cur++
	}
	return cur
}

// next returns the candidate folded from the next entry v of the shortest
// list, -1 when the list is exhausted: the column entry of the lowest
// ancestor-or-self c of v that contains, for every other list, that list's
// closest match in document order. The predecessor (ord < vOrd <= c's End)
// lies in c iff c's Pos <= its ord, the successor (ord >= vOrd >= c's Pos)
// iff its ord <= c's End, so the climb reads only packed ords and the
// columns, and one c carries across lists because containment survives
// climbing.
func (g *folds) next() int32 {
	s := g.lists[g.shortest]
	if g.si == len(s.Ords) {
		return -1
	}
	vOrd := s.Ords[g.si]
	g.si++
	pos, end, parent := g.cols.Pos, g.cols.End, g.cols.Parent
	at := advance(g.colScan, pos, g.cursors[g.shortest], vOrd)
	g.cursors[g.shortest] = at
	c := int32(at)
	for li, l := range g.lists {
		if li == g.shortest {
			continue
		}
		if parent[c] < 0 {
			break // already at the root
		}
		cur := advance(g.scan, l.Ords, g.cursors[li], vOrd)
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
		for parent[c] >= 0 && pos[c] > pred && succ > end[c] {
			c = parent[c]
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

// lcaScratch is the reusable state of one SLCA or ELCA evaluation: the
// candidate stream, and for ELCA the stack of undecided entries. out is the
// SLCA stack or the ELCA set under construction, as column entries.
type lcaScratch struct {
	folds
	cursors []int       // k fold cursors, then ELCA's k Start-rank and k End-rank cursors
	frames  []elcaFrame // the ancestor chain root → current candidate
	rows    []int32     // per frame: k Start ranks, then the k-wide row of its decided ELCA descendants
	path    []int32
	out     []int32
	pushes  int // entries stacked by the last ELCA evaluation, each at most once
}

var lcaPool = sync.Pool{New: func() any { return &lcaScratch{} }}

// start begins an evaluation of lists on cols, with zeroed cursors.
func (sc *lcaScratch) start(cols *index.Columns, lists []*index.PostingList) {
	k := len(lists)
	sc.cursors = slices.Grow(sc.cursors[:0], 3*k)[:3*k]
	clear(sc.cursors)
	sc.folds = newFolds(cols, lists, sc.cursors[:k])
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
	limit    int     // seal this many entries, then stop; 0 = unlimited
	pos, end []int32 // the columns the entries index
	stack    []int32 // column entries
}

// add folds candidate c into the stack and reports whether the first
// limit SLCAs are now provable (the scan can stop). Entries are in
// preorder, so comparing two entries compares their positions.
func (st *slcaStack) add(c int32) bool {
	for {
		if len(st.stack) == 0 {
			st.stack = append(st.stack, c)
			break
		}
		top := st.stack[len(st.stack)-1]
		if c == top {
			break // duplicate
		}
		if c < top {
			// c strictly contains top (its match lies at or after top's
			// interval, so the laminar intervals force c ⊃ top), or c
			// duplicates a sealed entry; either way a candidate at least
			// as small already exists inside c: drop c.
			break
		}
		if st.pos[c] <= st.end[top] {
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

// results returns the accumulated SLCA entries (or their first limit) and
// whether the set was truncated by the bound.
func (st *slcaStack) results() ([]int32, bool) {
	if st.limit > 0 && len(st.stack) > st.limit {
		return st.stack[:st.limit], true
	}
	return st.stack, false
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
