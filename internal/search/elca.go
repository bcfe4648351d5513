package search

import (
	"slices"
	"sort"
	"sync"

	"extract/internal/index"
	"extract/xmltree"
)

// ELCA returns the Exclusive Lowest Common Ancestors of the keyword match
// lists: nodes that witness every keyword even after excluding the matches
// lying under descendant nodes that themselves witness every keyword (the
// XRank semantics). Every SLCA is an ELCA; ELCA additionally surfaces
// ancestors with their own, exclusive evidence. Lists must be sorted in
// document order (index posting lists are) and drawn from one finalized
// document; a node repeated within one list counts as that many matches.
// The result is in document order.
func ELCA(lists ...[]*xmltree.Node) []*xmltree.Node {
	elcas, _ := ELCAPacked(packLists(lists)...)
	return elcas
}

// ELCAPacked is ELCA over packed posting lists, the form the engine holds.
// free reports, per list, whether some entry lies outside the subtree of
// every ELCA below the document root — the root's own exclusive evidence,
// and what a shard contributes to the root decision of a sharded query
// (shard.Digest.Free). When a list is empty there are no ELCAs and every
// entry is free.
//
// The evaluation is driven by the shortest list. An ELCA contains every
// keyword, and the nodes that do are exactly the candidates folded from the
// shortest list's entries (folds, the loop SLCA runs on) and their
// ancestors, so those are the only nodes decided. The real ancestor chain
// root → current candidate sits on a stack, and a node x is decided when
// the stream leaves it: x is an ELCA iff, for every list,
//
//	(entries inside [x.Start, x.End]) − (entries inside x's outermost ELCA descendants) > 0.
//
// Both terms are rank differences read from monotone cursors, never a walk
// over the entries: nodes are pushed in increasing Start and popped in
// increasing End, so one cursor per list ranks Start at push time and
// another ranks End+1 at pop time. The subtracted term is a k-wide row a
// popped node hands its parent — its whole count if it qualified, its own
// row otherwise. A qualifying node is inserted at the output length recorded
// when it was pushed (everything emitted since lies below it), so the set
// leaves in document order unsorted. The root is never popped: what its row
// leaves of each list when the stream ends is free. Cost: one push per
// distinct ancestor of a candidate, 2k cursor advances each (see
// PERFORMANCE.md, "The ELCA cost model"). Scratch buffers are pooled, so
// steady-state evaluation allocates only what it returns.
func ELCAPacked(lists ...*index.PostingList) (elcas []*xmltree.Node, free []bool) {
	if len(lists) == 0 {
		return nil, nil
	}
	k, complete := len(lists), true
	free = make([]bool, k)
	for j, l := range lists {
		free[j] = l.Len() > 0
		complete = complete && free[j]
	}
	if !complete {
		return nil, free
	}

	sc := elcaPool.Get().(*elcaScratch)
	defer elcaPool.Put(sc)
	return sc.eval(lists, free), free
}

// eval is ELCAPacked over non-empty lists on this scratch: it returns the
// ELCAs, its one allocation, and overwrites free.
func (sc *elcaScratch) eval(lists []*index.PostingList, free []bool) []*xmltree.Node {
	k := len(lists)
	sc.cursors = slices.Grow(sc.cursors[:0], 3*k)[:3*k]
	clear(sc.cursors)
	sc.folds = newFolds(lists, sc.cursors[:k])
	sc.frames, sc.rows, sc.out, sc.pushes = sc.frames[:0], sc.rows[:0], sc.out[:0], 0

	root := lists[0].Nodes[0].Root()
	sc.push(root)
	for c := sc.next(); c != nil; c = sc.next() {
		// Frames ending before c have seen all their entries: every later
		// candidate contains a match at or after c's.
		for sc.top().End < c.Start {
			sc.pop()
		}
		// c now is the top, an ancestor of it (both already stacked: the
		// stack is a whole chain from the root), or a proper descendant.
		top := sc.top()
		if c.Start <= top.Start {
			continue
		}
		path := sc.path[:0]
		for n := c; n != top; n = n.Parent {
			path = append(path, n)
		}
		for i := len(path) - 1; i >= 0; i-- {
			sc.push(path[i])
		}
		sc.path = path
	}
	for len(sc.frames) > 1 {
		sc.pop()
	}
	// The root's count is the whole list, so what its row leaves is free.
	rootQualifies := true
	for j, l := range lists {
		free[j] = int32(l.Len()) > sc.rows[k+j]
		rootQualifies = rootQualifies && free[j]
	}
	if rootQualifies {
		sc.out = slices.Insert(sc.out, 0, root)
	}
	sc.folds = folds{} // the pool must not pin the posting lists
	return slices.Clone(sc.out)
}

// elcaScratch is the reusable state of one ELCA evaluation: the candidate
// stream, the stack of undecided nodes and the output under construction.
type elcaScratch struct {
	folds
	cursors []int       // k fold cursors, k Start-rank cursors, k End-rank cursors
	frames  []elcaFrame // the ancestor chain root → current candidate
	rows    []int32     // per frame: k Start ranks, then the k-wide row of its decided ELCA descendants
	path    []*xmltree.Node
	out     []*xmltree.Node
	pushes  int // nodes stacked by the last evaluation, each at most once
}

type elcaFrame struct {
	node *xmltree.Node
	at   int // len(out) when pushed: where the node goes if it qualifies
}

var elcaPool = sync.Pool{New: func() any { return &elcaScratch{} }}

func (sc *elcaScratch) top() *xmltree.Node { return sc.frames[len(sc.frames)-1].node }

// push stacks n, a child of the top, ranking its Start in every list.
func (sc *elcaScratch) push(n *xmltree.Node) {
	sc.frames = append(sc.frames, elcaFrame{n, len(sc.out)})
	sc.pushes++
	k := len(sc.lists)
	starts := sc.cursors[k : 2*k]
	for j, l := range sc.lists {
		starts[j] = sc.advance(l.Ords, starts[j], n.Start)
		sc.rows = append(sc.rows, int32(starts[j]))
	}
	for range k {
		sc.rows = append(sc.rows, 0)
	}
}

// pop decides the top (never the root): it qualifies iff its count exceeds
// its row in every list, and hands its parent the count if so, the row if
// not. A list that fails the test ends the ranking — a node that is not an
// ELCA needs no count.
func (sc *elcaScratch) pop() {
	f := sc.frames[len(sc.frames)-1]
	sc.frames = sc.frames[:len(sc.frames)-1]
	k := len(sc.lists)
	base := len(sc.rows) - 2*k
	count, row, parent := sc.rows[base:base+k], sc.rows[base+k:], sc.rows[base-k:base]
	sc.rows = sc.rows[:base]
	ends, qualifies := sc.cursors[2*k:], true
	for j, l := range sc.lists {
		ends[j] = sc.advance(l.Ords, ends[j], f.node.End+1)
		count[j] = int32(ends[j]) - count[j] // the Start rank becomes the count
		if count[j] <= row[j] {
			qualifies = false
			break
		}
	}
	hand := row
	if qualifies {
		hand = count
		sc.out = slices.Insert(sc.out, f.at, f.node)
	}
	for j, c := range hand {
		parent[j] += c
	}
}

// ELCABaseline is the pre-flattening implementation: exclusive counting by
// recursion over the entire document subtree, O(document size × keywords).
// Retained as the "before" side of the perf-regression harness and as the
// reference implementation in property tests (its cost is linear in the
// document, so unlike SLCABrute it stays usable on large random corpora).
func ELCABaseline(lists ...[]*xmltree.Node) []*xmltree.Node {
	if len(lists) == 0 {
		return nil
	}
	for _, l := range lists {
		if len(l) == 0 {
			return nil
		}
	}
	k := len(lists)
	matchOf := make(map[*xmltree.Node][]int)
	var root *xmltree.Node
	for i, l := range lists {
		for _, n := range l {
			matchOf[n] = append(matchOf[n], i)
			if r := n.Root(); root == nil {
				root = r
			}
		}
	}
	if root == nil {
		return nil
	}

	var out []*xmltree.Node
	// counts returns the number of matches per keyword in n's subtree,
	// excluding subtrees of ELCA descendants found so far.
	var counts func(n *xmltree.Node) []int
	counts = func(n *xmltree.Node) []int {
		c := make([]int, k)
		for _, i := range matchOf[n] {
			c[i]++
		}
		for _, ch := range n.Children {
			cc := counts(ch)
			for i := range c {
				c[i] += cc[i]
			}
		}
		all := true
		for i := range c {
			if c[i] == 0 {
				all = false
				break
			}
		}
		if all {
			out = append(out, n)
			return make([]int, k) // exclude this subtree's evidence
		}
		return c
	}
	counts(root)
	sort.Slice(out, func(i, j int) bool { return out[i].Ord < out[j].Ord })
	return out
}
