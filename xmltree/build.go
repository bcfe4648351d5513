package xmltree

// Builders for constructing trees programmatically: tests, generators and
// examples assemble documents with Elem / Txt / Attr and finalize them with
// NewDocument.

// Elem returns a new element node with the given label and children. Parent
// pointers of the children are set; positions are assigned by NewDocument.
func Elem(label string, children ...*Node) *Node {
	n := &Node{Kind: KindElement, Label: label}
	for _, c := range children {
		if c == nil {
			continue
		}
		c.Parent = n
		n.Children = append(n.Children, c)
	}
	return n
}

// Txt returns a new text node with the given value.
func Txt(value string) *Node {
	return &Node{Kind: KindText, Value: value}
}

// Attr returns an attribute-shaped element: an element labeled name with a
// single text child carrying value. This is the normalized form both for
// XML attributes and for the paper's attribute nodes.
func Attr(name, value string) *Node {
	return Elem(name, Txt(value))
}

// Append attaches child to parent, maintaining the parent pointer. It
// returns parent for chaining. Positions are not updated; call
// NewDocument on the root after structural edits.
func Append(parent, child *Node) *Node {
	if child != nil {
		child.Parent = parent
		parent.Children = append(parent.Children, child)
	}
	return parent
}

// DeepCopy returns an independent copy of n's subtree. Origin pointers of
// the copies point at the originals.
func DeepCopy(n *Node) *Node {
	if n == nil {
		return nil
	}
	c := &Node{
		Kind:     n.Kind,
		Label:    n.Label,
		Value:    n.Value,
		FromAttr: n.FromAttr,
		Origin:   n,
	}
	for _, ch := range n.Children {
		cc := DeepCopy(ch)
		cc.Parent = c
		c.Children = append(c.Children, cc)
	}
	return c
}
