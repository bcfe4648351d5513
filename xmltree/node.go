// Package xmltree provides the XML document model used throughout eXtract:
// an ordered labeled tree whose nodes are identified by their preorder
// interval, parsing from standard XML syntax, serialization, rendering and
// tree projections.
//
// The model follows the paper's view of XML data: element nodes carry labels
// (tags), text nodes carry values, and XML attributes are normalized into
// element nodes with a single text child so that the XSeek-style node
// classification (entity / attribute / connection) applies uniformly.
package xmltree

import (
	"strconv"
	"strings"
)

// Kind discriminates the two node kinds of the model.
type Kind uint8

const (
	// KindElement is an element node carrying a Label (tag name).
	KindElement Kind = iota
	// KindText is a text node carrying a Value.
	KindText
)

// String returns a short name for the kind.
func (k Kind) String() string {
	switch k {
	case KindElement:
		return "element"
	case KindText:
		return "text"
	default:
		return "invalid"
	}
}

// Node is a node of an XML tree. Element nodes have a Label and children;
// text nodes have a Value and no children. XML attributes are normalized
// during parsing into element nodes with FromAttr set and a single text
// child, matching the paper's uniform treatment of attributes.
type Node struct {
	Kind Kind

	// Sym is the node's document-local symbol id, assigned when its
	// document is finalized: on an element the id of its Label, on a text
	// node the id of its Value. The two id spaces are separate and each is
	// dense (0..distinct-1); within one document equal strings have equal
	// ids and different strings different ones, so per-result passes key
	// their tables on Sym instead of hashing the string at every node. Ids
	// mean nothing across documents or on a tree not (yet) finalized, and
	// they depend on no classification, so a document adopted unchanged by
	// a reload keeps them under a new analysis. It shares the struct's
	// first word with Kind.
	Sym int32

	Label string // tag name for elements; empty for text nodes
	Value string // text content for text nodes; empty for elements

	// FromAttr marks element nodes synthesized from XML attributes.
	FromAttr bool

	Parent   *Node
	Children []*Node

	// Ord is the preorder position of the node within its document.
	Ord int

	// Start and End are the node's preorder interval within its document,
	// assigned by NewDocument: Start is the node's own preorder position
	// (== Ord) and End is the largest preorder position in its subtree.
	// The interval is the node's identity: it orders nodes in document
	// order, makes ancestor/descendant tests two integer compares (see
	// Contains), and an LCA is the first node on a Parent chain whose
	// interval covers the other position. Valid only on finalized
	// documents (int32 bounds document size at ~2G nodes).
	Start, End int32

	// Origin, when non-nil, points at the node this one was projected or
	// copied from (see ProjectSet, DeepCopy). Snippet trees and trimmed
	// query-result trees keep Origin chains back to the source document;
	// a subtree-mode query result is a view of the source nodes
	// themselves (see Document.Subtree) and has none.
	Origin *Node
}

// IsElement reports whether n is an element node.
func (n *Node) IsElement() bool { return n.Kind == KindElement }

// IsText reports whether n is a text node.
func (n *Node) IsText() bool { return n.Kind == KindText }

// Root returns the root of the tree containing n.
func (n *Node) Root() *Node {
	for n.Parent != nil {
		n = n.Parent
	}
	return n
}

// Depth returns the number of edges from n to its tree root.
func (n *Node) Depth() int {
	d := 0
	for p := n.Parent; p != nil; p = p.Parent {
		d++
	}
	return d
}

// HasSingleTextChild reports whether n is an element whose only child is a
// text node — the structural shape of an attribute in the paper's model.
func (n *Node) HasSingleTextChild() bool {
	return n.IsElement() && len(n.Children) == 1 && n.Children[0].IsText()
}

// TextValue returns the value of n's single text child, or the empty string
// if n does not have exactly one text child.
func (n *Node) TextValue() string {
	if n.HasSingleTextChild() {
		return n.Children[0].Value
	}
	return ""
}

// Text returns the concatenation of all text values in n's subtree in
// document order, separated by single spaces.
func (n *Node) Text() string {
	var parts []string
	n.Walk(func(m *Node) bool {
		if m.IsText() && m.Value != "" {
			parts = append(parts, m.Value)
		}
		return true
	})
	return strings.Join(parts, " ")
}

// Walk visits n and its descendants in document order. If fn returns false
// for a node, that node's descendants are skipped.
func (n *Node) Walk(fn func(*Node) bool) {
	if n == nil {
		return
	}
	if !fn(n) {
		return
	}
	for _, c := range n.Children {
		c.Walk(fn)
	}
}

// NodeCount returns the number of nodes in n's subtree, including n.
func (n *Node) NodeCount() int {
	count := 0
	n.Walk(func(*Node) bool { count++; return true })
	return count
}

// EdgeCount returns the number of edges in n's subtree. Snippet size bounds
// in the paper are expressed in edges.
func (n *Node) EdgeCount() int {
	c := n.NodeCount()
	if c == 0 {
		return 0
	}
	return c - 1
}

// ChildElement returns the first child element labeled label, or nil.
func (n *Node) ChildElement(label string) *Node {
	for _, c := range n.Children {
		if c.IsElement() && c.Label == label {
			return c
		}
	}
	return nil
}

// ChildElements returns all child elements labeled label.
func (n *Node) ChildElements(label string) []*Node {
	var out []*Node
	for _, c := range n.Children {
		if c.IsElement() && c.Label == label {
			out = append(out, c)
		}
	}
	return out
}

// Descendant returns the first element in n's subtree (in document order)
// whose label path from n matches the given labels, or nil. For example,
// Descendant("store", "city") finds the first city under the first store
// that has one.
func (n *Node) Descendant(labels ...string) *Node {
	cur := n
	for _, l := range labels {
		next := cur.ChildElement(l)
		if next == nil {
			return nil
		}
		cur = next
	}
	return cur
}

// Contains reports whether m lies strictly inside n's subtree, using the
// preorder intervals assigned by NewDocument. Both nodes must belong to the
// same finalized document; results are unspecified otherwise.
func (n *Node) Contains(m *Node) bool {
	return n.Start < m.Start && m.Start <= n.End
}

// ContainsOrSelf reports whether m is n or lies inside n's subtree, using
// the preorder intervals assigned by NewDocument. Both nodes must belong to
// the same finalized document.
func (n *Node) ContainsOrSelf(m *Node) bool {
	return n.Start <= m.Start && m.Start <= n.End
}

// PathTo returns the nodes strictly between ancestor and n, plus n itself,
// ordered from just below ancestor down to n. It returns nil if ancestor is
// not an ancestor of n. PathTo(n, n) returns an empty path.
func (n *Node) PathTo(ancestor *Node) []*Node {
	var rev []*Node
	for m := n; m != ancestor; m = m.Parent {
		if m == nil {
			return nil
		}
		rev = append(rev, m)
	}
	for i, j := 0, len(rev)-1; i < j; i, j = i+1, j-1 {
		rev[i], rev[j] = rev[j], rev[i]
	}
	return rev
}

// String renders a short description of the node for debugging; an element
// prints with its Ord, which Document.ByOrd resolves.
func (n *Node) String() string {
	if n == nil {
		return "<nil>"
	}
	if n.IsText() {
		return "#text(" + n.Value + ")"
	}
	return "<" + n.Label + ">@" + strconv.Itoa(n.Ord)
}

// LCA returns the lowest common ancestor of a and b within their shared
// tree, or nil if they are in different trees.
func LCA(a, b *Node) *Node {
	da, db := a.Depth(), b.Depth()
	for da > db {
		a = a.Parent
		da--
	}
	for db > da {
		b = b.Parent
		db--
	}
	for a != b {
		if a == nil || b == nil {
			return nil
		}
		a, b = a.Parent, b.Parent
	}
	return a
}
