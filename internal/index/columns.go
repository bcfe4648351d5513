package index

import (
	"slices"

	"extract/xmltree"
)

// Columns are the elements of a document — or of one subtree of it — in
// preorder, as parallel int32 columns: what a pass that is sequential by
// construction (the snippet pipeline's statistics fold, features.Collector)
// reads instead of the node graph. Entry i describes one element; text
// nodes have no entry. The columns hold no pointer and no string, depend on
// no classification, and are derived from the document — they are part of no
// file or wire format.
type Columns struct {
	Pos    []int32 // the element's preorder position (Node.Start); ascending
	End    []int32 // the largest preorder position in its subtree (Node.End)
	Label  []int32 // its label symbol (Node.Sym)
	Parent []int32 // the entry of its parent element; -1 on the first entry
	Value  []int32 // the value symbol of its single text child; -1 when it does not hold exactly one

	slab []int32 // the five columns, back to back
	open []int32 // fill state: the entries of the last element's ancestors-or-self
}

// Len returns the number of entries.
func (c *Columns) Len() int { return len(c.Pos) }

// Fill replaces c with the columns of the elements among nodes, the preorder
// run of one subtree of a finalized document (nodes[0] is its root). The
// columns are cut from one slab, which a refill reuses when it is large
// enough and allocates at exact size when it is not.
func (c *Columns) Fill(nodes []*xmltree.Node) {
	c.reset(countElements(nodes))
	k := 0
	for _, n := range nodes {
		if n.Kind == xmltree.KindElement {
			c.put(k, n)
			k++
		}
	}
}

func countElements(nodes []*xmltree.Node) int {
	count := 0
	for _, n := range nodes {
		if n.Kind == xmltree.KindElement {
			count++
		}
	}
	return count
}

// reset sizes the columns for n entries, to be put in preorder.
func (c *Columns) reset(n int) {
	if cap(c.slab) < 5*n {
		c.slab = make([]int32, 5*n)
	}
	s := c.slab[:5*n]
	c.Pos, c.End, c.Label, c.Parent, c.Value = s[0:n:n], s[n:2*n:2*n], s[2*n:3*n:3*n], s[3*n:4*n:4*n], s[4*n:5*n:5*n]
	c.open = c.open[:0]
}

// put writes entry k, the element n; entries must be put in preorder. The
// parent entry is the innermost earlier entry whose subtree is still open.
func (c *Columns) put(k int, n *xmltree.Node) {
	open := c.open
	for len(open) > 0 && c.End[open[len(open)-1]] < n.Start {
		open = open[:len(open)-1]
	}
	parent, value := int32(-1), int32(-1)
	if len(open) > 0 {
		parent = open[len(open)-1]
	}
	if len(n.Children) == 1 && n.Children[0].Kind == xmltree.KindText {
		value = n.Children[0].Sym
	}
	c.Pos[k], c.End[k], c.Label[k], c.Parent[k], c.Value[k] = n.Start, n.End, n.Sym, parent, value
	c.open = append(open, int32(k))
}

// Run returns the entries [lo, hi) of the elements inside the preorder
// interval [start, end] — a subtree, when the two are a node's Start and End.
func (c *Columns) Run(start, end int32) (lo, hi int) { return within(c.Pos, start, end) }

// within returns the bounds [lo, hi) of the values of an ascending,
// duplicate-free column inside [start, end]: one binary search for the
// start, and one over no more entries than the interval has positions.
func within(sorted []int32, start, end int32) (lo, hi int) {
	lo, _ = slices.BinarySearch(sorted, start)
	n, _ := slices.BinarySearch(sorted[lo:min(len(sorted), lo+int(end-start)+1)], end+1)
	return lo, lo + n
}
