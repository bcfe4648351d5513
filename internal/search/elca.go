package search

import (
	"slices"
	"sort"

	"extract/internal/index"
	"extract/xmltree"
)

// ELCA returns the Exclusive Lowest Common Ancestors of the keyword match
// lists: nodes that witness every keyword even after excluding the matches
// lying under descendant nodes that themselves witness every keyword (the
// XRank semantics). Every SLCA is an ELCA; ELCA additionally surfaces
// ancestors with their own, exclusive evidence. Lists must be sorted in
// document order (index posting lists are) and hold elements of one
// finalized document; a node repeated within one list counts as that many
// matches. The result is in document order. Like SLCA, it fills the columns
// of the lists' document on every call.
func ELCA(lists ...[]*xmltree.Node) []*xmltree.Node {
	ix := columnsOf(lists)
	if ix == nil {
		return nil
	}
	elcas, _ := ELCAPacked(ix, packLists(lists)...)
	return elcas
}

// ELCAPacked is ELCA over packed posting lists of ix's document, the form
// the engine holds. free reports, per list, whether some entry lies outside
// the subtree of every ELCA below the document root — the root's own
// exclusive evidence, and what a shard contributes to the root decision of a
// sharded query (shard.Digest.Free). When a list is empty there are no ELCAs
// and every entry is free.
//
// The evaluation is driven by the shortest list and runs on ix's columns
// (index.Columns), as SLCA's does. An ELCA contains every keyword, and the
// elements that do are exactly the candidates folded from the shortest
// list's entries (folds, the loop SLCA runs on) and their ancestors, so
// those are the only elements decided. The real ancestor chain root →
// current candidate sits on a stack of column entries, and an element x is
// decided when the stream leaves it: x is an ELCA iff, for every list,
//
//	(entries inside [x.Start, x.End]) − (entries inside x's outermost ELCA descendants) > 0.
//
// Both terms are rank differences read from monotone cursors, never a walk
// over the entries: elements are pushed in increasing Start and popped in
// increasing End, so one cursor per list ranks Start at push time and
// another ranks End+1 at pop time. The subtracted term is a k-wide row a
// popped element hands its parent — its whole count if it qualified, its
// own row otherwise. A qualifying element is inserted at the output length
// recorded when it was pushed (everything emitted since lies below it), so
// the set leaves in document order unsorted. The root is never popped: what
// its row leaves of each list when the stream ends is free. Cost: one push
// per distinct ancestor of a candidate — a Parent column read to find it,
// a Pos read and k cursor advances to push it, an End read and k more to pop
// it (see PERFORMANCE.md, "The ELCA cost model"). No node is read until the
// ELCAs are mapped to theirs at the end. Scratch buffers are pooled, so
// steady-state evaluation allocates only what it returns.
func ELCAPacked(ix *index.Index, lists ...*index.PostingList) (elcas []*xmltree.Node, free []bool) {
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

	sc := lcaPool.Get().(*lcaScratch)
	defer lcaPool.Put(sc)
	return sc.eval(ix, lists, free), free
}

// eval is ELCAPacked over non-empty lists on this scratch: it returns the
// ELCAs, its one allocation, and overwrites free.
func (sc *lcaScratch) eval(ix *index.Index, lists []*index.PostingList, free []bool) []*xmltree.Node {
	k, cols := len(lists), ix.Columns()
	sc.start(cols, lists)
	sc.frames, sc.rows, sc.out, sc.pushes = sc.frames[:0], sc.rows[:0], sc.out[:0], 0
	pos, end, parent := cols.Pos, cols.End, cols.Parent

	sc.push(0) // the document root
	for c := sc.next(); c >= 0; c = sc.next() {
		// Frames ending before c have seen all their entries: every later
		// candidate contains a match at or after c's.
		for end[sc.top()] < pos[c] {
			sc.pop()
		}
		// c now is the top, an ancestor of it (both already stacked: the
		// stack is a whole chain from the root), or a proper descendant.
		// Entries are in preorder, so c precedes the top iff it is an
		// ancestor.
		top := sc.top()
		if c <= top {
			continue
		}
		path := sc.path[:0]
		for e := c; e != top; e = parent[e] {
			path = append(path, e)
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
		sc.out = slices.Insert(sc.out, 0, 0)
	}
	sc.folds = folds{} // the pool must not pin the posting lists or columns
	return nodesOf(ix, sc.out)
}

type elcaFrame struct {
	entry int32 // the element's column entry
	at    int32 // len(out) when pushed: where the element goes if it qualifies
}

func (sc *lcaScratch) top() int32 { return sc.frames[len(sc.frames)-1].entry }

// push stacks entry e, a child of the top, ranking its Start in every list.
func (sc *lcaScratch) push(e int32) {
	sc.frames = append(sc.frames, elcaFrame{e, int32(len(sc.out))})
	sc.pushes++
	k, start := len(sc.lists), sc.cols.Pos[e]
	starts := sc.cursors[k : 2*k]
	for j, l := range sc.lists {
		starts[j] = advance(sc.scan, l.Ords, starts[j], start)
		sc.rows = append(sc.rows, int32(starts[j]))
	}
	for range k {
		sc.rows = append(sc.rows, 0)
	}
}

// pop decides the top (never the root): it qualifies iff its count exceeds
// its row in every list, and hands its parent the count if so, the row if
// not. A list that fails the test ends the ranking — an element that is not
// an ELCA needs no count.
func (sc *lcaScratch) pop() {
	f := sc.frames[len(sc.frames)-1]
	sc.frames = sc.frames[:len(sc.frames)-1]
	k := len(sc.lists)
	base := len(sc.rows) - 2*k
	count, row, parent := sc.rows[base:base+k], sc.rows[base+k:], sc.rows[base-k:base]
	sc.rows = sc.rows[:base]
	ends, qualifies, after := sc.cursors[2*k:], true, sc.cols.End[f.entry]+1
	for j, l := range sc.lists {
		ends[j] = advance(sc.scan, l.Ords, ends[j], after)
		count[j] = int32(ends[j]) - count[j] // the Start rank becomes the count
		if count[j] <= row[j] {
			qualifies = false
			break
		}
	}
	hand := row
	if qualifies {
		hand = count
		sc.out = slices.Insert(sc.out, int(f.at), f.entry)
	}
	for j, c := range hand {
		parent[j] += c
	}
}

// ELCABaseline is the pre-flattening implementation: exclusive counting by
// recursion over the entire document subtree, O(document size × keywords).
// Retained as the reference implementation in property tests (its cost is
// linear in the document, so unlike SLCABrute it stays usable on large
// random corpora).
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
