package search

import (
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
//
// The implementation runs the bottom-up exclusive counting not over the
// whole document but over the match virtual tree — the match nodes plus
// the LCA closure — built by a single stack pass over a k-way merge of the
// ord-sorted lists. Only nodes of the virtual tree can be ELCAs: any other
// ancestor of a match inherits the residual counts of a single
// virtual-tree descendant unchanged, which is either all-zero (an ELCA
// below it) or missing a keyword. A virtual node's subtree is complete
// exactly when it is popped, so counting happens at pop time with no
// second pass. Scratch buffers are pooled, so repeated evaluation does not
// reallocate.
func ELCA(lists ...[]*xmltree.Node) []*xmltree.Node {
	if len(lists) == 0 {
		return nil
	}
	for _, l := range lists {
		if len(l) == 0 {
			return nil
		}
	}
	k := len(lists)

	sc := elcaPool.Get().(*elcaScratch)
	defer elcaPool.Put(sc)

	// Virtual-tree arrays: node and a flat k-wide count row per node.
	vn := sc.vn[:0]
	cnt := sc.cnt[:0]
	addNode := func(n *xmltree.Node) int32 {
		vn = append(vn, n)
		for i := 0; i < k; i++ {
			cnt = append(cnt, 0)
		}
		return int32(len(vn) - 1)
	}
	var out []*xmltree.Node
	// finalize closes w's subtree: an all-positive row is an ELCA and
	// keeps its evidence; otherwise the residual flows to the parent row
	// (target < 0 discards, used only for the virtual root).
	finalize := func(w, target int32) {
		row := cnt[int(w)*k : int(w)*k+k]
		all := true
		for _, c := range row {
			if c == 0 {
				all = false
				break
			}
		}
		if all {
			out = append(out, vn[w])
			return
		}
		if target >= 0 {
			prow := cnt[int(target)*k : int(target)*k+k]
			for j, c := range row {
				prow[j] += c
			}
		}
	}

	// k-way merge cursors over the ord-sorted lists; stack entries are
	// indices into vn and always form a root-to-node ancestor chain.
	cursors := sc.cursors[:0]
	for range lists {
		cursors = append(cursors, 0)
	}
	sc.cursors = cursors
	stack := sc.stack[:0]
	for {
		// Next distinct match node in document order, with its counts.
		var v *xmltree.Node
		for i, l := range lists {
			if c := cursors[i]; c < len(l) && (v == nil || l[c].Start < v.Start) {
				v = l[c]
			}
		}
		if v == nil {
			break
		}
		vi := addNode(v)
		for i, l := range lists {
			// Consume consecutive duplicates so a node repeated within a
			// list accumulates counts instead of becoming a second
			// virtual node (the baseline's matchOf semantics).
			for cursors[i] < len(l) && l[cursors[i]] == v {
				cnt[int(vi)*k+i]++
				cursors[i]++
			}
		}
		if len(stack) == 0 {
			stack = append(stack, vi)
			continue
		}
		// Pop completed subtrees: everything strictly inside lca(top, v)
		// — the stack is an ancestor chain through it — has seen all its
		// matches. Each popped node merges into the entry below it; the
		// shallowest popped merges into u itself.
		u := fastLCA(vn[stack[len(stack)-1]], v)
		popped := int32(-1)
		for len(stack) > 0 && u.Contains(vn[stack[len(stack)-1]]) {
			w := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			if popped >= 0 {
				finalize(popped, w)
			}
			popped = w
		}
		if popped >= 0 {
			// Every entry left is u or an ancestor of u, so u is on the
			// stack iff it is the top.
			var ui int32
			if len(stack) > 0 && vn[stack[len(stack)-1]] == u {
				ui = stack[len(stack)-1]
			} else {
				ui = addNode(u)
				stack = append(stack, ui)
			}
			finalize(popped, ui)
		}
		stack = append(stack, vi)
	}
	// Drain: each remaining entry finalizes into the one below; the
	// virtual root's residual is discarded.
	for len(stack) > 0 {
		w := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if len(stack) > 0 {
			finalize(w, stack[len(stack)-1])
		} else {
			finalize(w, -1)
		}
	}
	sc.vn, sc.cnt, sc.stack = vn, cnt, stack[:0]

	// Finalization order is post-order; emit in document order.
	sort.Slice(out, func(i, j int) bool { return out[i].Start < out[j].Start })
	return out
}

// ELCAPacked is ELCA over packed posting lists, the form the engine holds.
func ELCAPacked(lists ...*index.PostingList) []*xmltree.Node {
	nodeLists := make([][]*xmltree.Node, len(lists))
	for i, l := range lists {
		if l == nil {
			return nil
		}
		nodeLists[i] = l.Nodes
	}
	return ELCA(nodeLists...)
}

// elcaScratch holds the reusable buffers of one ELCA evaluation.
type elcaScratch struct {
	vn      []*xmltree.Node
	cnt     []int32
	stack   []int32
	cursors []int
}

var elcaPool = sync.Pool{New: func() any { return &elcaScratch{} }}

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
