package xmltree

import (
	"fmt"
	"sync/atomic"
)

// Document is a finalized XML tree: preorder positions and intervals have
// been assigned to every node, and the preorder node sequence is
// materialized for index construction.
//
// A Document is either a whole finalized tree (NewDocument, Parse,
// AdoptFinalized) or a view of one subtree of such a tree (Subtree). A view
// shares the enclosing document's nodes: Root, Nodes, Len and ByOrd are
// relative to the view, while the fields of the nodes themselves — Parent,
// Ord, Start, End — stay those of the enclosing document, so a view root's
// Parent may be non-nil and its Ord non-zero.
//
// Invariant: once a document is indexed and served, its nodes are never
// mutated again. Query results are views of served documents (see
// search.Result) and are read concurrently by every holder; loaders build a
// new document for changed content and adopt unchanged documents as they are.
type Document struct {
	Root *Node

	// InternalSubset holds the DTD declarations of the document's
	// DOCTYPE internal subset, when Parse found one ("" otherwise).
	InternalSubset string

	nodes []*Node // preorder; for a view, the subtree's run of the enclosing sequence
	view  bool

	// stats memoizes Stats. A pointer, not the figures: every query result
	// is a view header, and this keeps the header in its size class.
	stats atomic.Pointer[Stats]
}

// NewDocument finalizes the tree rooted at root into a Document: it fixes
// parent pointers, assigns preorder positions and preorder intervals
// (Ord, Start/End), interns every label and value into the document's symbol
// ids (Sym, first-seen order) and materializes the node sequence. The tree
// is modified in place; root may be nil, producing an empty document.
func NewDocument(root *Node) *Document {
	d := &Document{Root: root}
	if root == nil {
		return d
	}
	root.Parent = nil
	d.nodes = make([]*Node, 0, root.NodeCount())
	syms := NewSymbols()
	var assign func(n *Node)
	assign = func(n *Node) {
		n.Ord = len(d.nodes)
		n.Start = int32(n.Ord)
		syms.Assign(n)
		d.nodes = append(d.nodes, n)
		for _, c := range n.Children {
			c.Parent = n
			assign(c)
		}
		n.End = int32(len(d.nodes) - 1)
	}
	assign(root)
	return d
}

// Symbols hands out a document's symbol ids (Node.Sym): dense, in first-seen
// order, element labels and text values numbered separately. NewDocument
// uses one per document; so does a loader that builds nodes itself from
// strings it has no ids for, before AdoptFinalized.
type Symbols struct {
	labels, values map[string]int32
}

// NewSymbols returns an empty id assignment for one document.
func NewSymbols() *Symbols {
	return &Symbols{labels: make(map[string]int32), values: make(map[string]int32)}
}

// Assign sets n.Sym from n's label (element) or value (text node); the
// nodes of a document must be assigned in preorder.
func (s *Symbols) Assign(n *Node) {
	ids, str := s.labels, n.Label
	if n.Kind == KindText {
		ids, str = s.values, n.Value
	}
	id, ok := ids[str]
	if !ok {
		id = int32(len(ids))
		ids[str] = id
	}
	n.Sym = id
}

// AdoptFinalized builds a Document around a node sequence whose
// finalization fields (Parent, Children, Ord, Start, End, Sym) the caller
// has already assigned consistently, with nodes in preorder and nodes[0] the
// root. It performs no validation and exists for loaders — the packed
// persist format stores the preorder layout directly, so reconstructing it
// assigns intervals in the same pass and a second NewDocument walk would
// only repeat that work.
func AdoptFinalized(nodes []*Node) *Document {
	d := &Document{nodes: nodes}
	if len(nodes) > 0 {
		d.Root = nodes[0]
	}
	return d
}

// Linker links nodes that arrive in preorder, each with its child count,
// into one tree: it sets every node's Parent, its preorder position (Ord,
// Start) and its End, and carves its Children out of an arena the caller
// sizes — one slot a child, total-1 for a tree of total nodes — so a tree of
// any shape or depth links with no allocation of its own. It keeps no stack:
// the innermost node with an unfilled child slot is the one open, and its
// Parent the next. The parser and CopySegment carve their child lists in
// chunks instead (the retention rule in parse.go).
type Linker struct {
	arena []*Node // child slots not yet carved
	open  *Node   // the innermost node with an unfilled child slot
	next  int     // the position of the next node
}

// NewLinker returns a Linker that carves child lists out of arena.
func NewLinker(arena []*Node) Linker { return Linker{arena: arena} }

// Link links n, the next node in preorder, which has kids children to come.
// It refuses a child count past the slots the arena has left — past the node
// total, for an arena of total-1 — and a node that comes after the root's
// subtree has closed: a second root.
func (l *Linker) Link(n *Node, kids int) error {
	i := l.next
	if l.open == nil && i > 0 {
		return fmt.Errorf("node %d outside the root subtree", i)
	}
	if kids < 0 || kids > len(l.arena) {
		return fmt.Errorf("node %d: child count %d past the node total", i, kids)
	}
	l.next++
	n.Parent, n.Children = l.open, nil
	n.Ord, n.Start, n.End = i, int32(i), int32(i)
	if l.open != nil {
		l.open.Children = append(l.open.Children, n)
	}
	if kids > 0 {
		n.Children, l.arena = l.arena[:0:kids], l.arena[kids:]
		l.open = n
		return nil
	}
	// A leaf closes every open node whose last slot it (transitively) filled.
	for l.open != nil && len(l.open.Children) == cap(l.open.Children) {
		l.open.End = int32(i)
		l.open = l.open.Parent
	}
	return nil
}

// Close reports a truncated tree: a node still waiting for children.
func (l *Linker) Close() error {
	if l.open != nil {
		return fmt.Errorf("tree truncated: node %d waits for %d more children", l.open.Start, cap(l.open.Children)-len(l.open.Children))
	}
	return nil
}

// Subtree returns a read-only view of n's subtree as a Document: Root is n
// itself and Nodes is the subtree's contiguous preorder run of d's node
// sequence, capacity-clipped. No node is copied or touched, so the cost is
// one small header whatever the subtree's size; the view keeps d's nodes
// reachable for as long as it lives. n must be a node of d.
func (d *Document) Subtree(n *Node) *Document { return d.SubtreeInto(new(Document), n) }

// SubtreeInto is Subtree writing the view into v, a zero Document the caller
// allocated — one of a slab, say — and returning v.
func (d *Document) SubtreeInto(v *Document, n *Node) *Document {
	lo := n.Ord - d.nodes[0].Ord
	hi := lo + int(n.End-n.Start) + 1
	v.Root, v.nodes, v.view = n, d.nodes[lo:hi:hi], true
	return v
}

// IsView reports whether d is a Subtree view sharing another document's
// nodes, rather than a finalized tree that owns them.
func (d *Document) IsView() bool { return d.view }

// Nodes returns all nodes of the document in document (preorder) order. The
// returned slice must not be modified.
func (d *Document) Nodes() []*Node { return d.nodes }

// Len returns the number of nodes in the document.
func (d *Document) Len() int { return len(d.nodes) }

// ByOrd resolves a preorder position (a node's Ord) to its node, or nil if
// out of range. On a view, positions are still those of the enclosing
// document, so d.ByOrd(n.Ord) == n for every node of d.
func (d *Document) ByOrd(ord int) *Node {
	if len(d.nodes) == 0 {
		return nil
	}
	ord -= d.nodes[0].Ord
	if ord < 0 || ord >= len(d.nodes) {
		return nil
	}
	return d.nodes[ord]
}

// Stats summarizes a document's shape; used by experiment reports.
type Stats struct {
	Nodes     int
	Elements  int
	Texts     int
	Attrs     int // elements synthesized from XML attributes
	MaxDepth  int
	Labels    int // distinct element labels
	TextBytes int
}

// Stats returns the document's ComputeStats figures, walking it on the first
// call only (two racing first calls may both walk): a served document never
// changes, so every later call — from a generation that adopted the
// document, say — reads that walk's result.
func (d *Document) Stats() Stats {
	if st := d.stats.Load(); st != nil {
		return *st
	}
	st := d.ComputeStats()
	d.stats.Store(&st)
	return st
}

// ComputeStats walks the document once and returns its Stats.
func (d *Document) ComputeStats() Stats {
	var s Stats
	labels := make(map[string]bool)
	var open []int32 // Ends of the current node's ancestors, outermost first
	for _, n := range d.nodes {
		s.Nodes++
		for len(open) > 0 && open[len(open)-1] < n.Start {
			open = open[:len(open)-1]
		}
		if len(open) > s.MaxDepth {
			s.MaxDepth = len(open)
		}
		open = append(open, n.End)
		switch n.Kind {
		case KindElement:
			s.Elements++
			labels[n.Label] = true
			if n.FromAttr {
				s.Attrs++
			}
		case KindText:
			s.Texts++
			s.TextBytes += len(n.Value)
		}
	}
	s.Labels = len(labels)
	return s
}

// ProjectSet builds a new tree containing copies of the nodes of set and of
// their ancestors up to root, preserving document order: the set is closed
// over ancestors before projecting, so the projection is one connected tree
// rooted at a copy of root (nil if the set is empty). Copies carry Origin
// pointers to their source nodes.
//
// Projections build query-result trees from match sets and snippet trees
// from selected instance sets.
func ProjectSet(root *Node, set map[*Node]bool) *Node {
	if len(set) == 0 {
		return nil
	}
	closed := make(map[*Node]bool, len(set)*2)
	for n := range set {
		for m := n; m != nil; m = m.Parent {
			if closed[m] {
				break
			}
			closed[m] = true
			if m == root {
				break
			}
		}
	}
	// Every kept node's ancestors up to root are kept, so a subtree whose
	// root is not kept holds nothing to copy.
	var build func(n, parent *Node) *Node
	build = func(n, parent *Node) *Node {
		c := &Node{Kind: n.Kind, Label: n.Label, Value: n.Value, FromAttr: n.FromAttr, Origin: n, Parent: parent}
		for _, child := range n.Children {
			if closed[child] {
				c.Children = append(c.Children, build(child, c))
			}
		}
		return c
	}
	return build(root, nil)
}
