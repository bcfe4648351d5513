package xmltree

// RenderASCII draws n's subtree as an ASCII art tree, one node per line,
// matching the figures in the paper: element labels plain, text values
// quoted, attribute-shaped nodes folded as name: "value".
func RenderASCII(n *Node) string {
	p := getBuf()
	b, prefix := appendASCII(p.out, p.scratch, n, true, true)
	s := string(b)
	p.put(b, prefix)
	return s
}

// appendASCII appends the lines of n's subtree. prefix is the drawing that
// opens n's line; it is returned as it came, in the buffer it grew into.
func appendASCII(b, prefix []byte, n *Node, isLast, isRoot bool) ([]byte, []byte) {
	mark := len(prefix)
	if !isRoot {
		b = append(b, prefix...)
		if isLast {
			b = append(b, "└─ "...)
			prefix = append(prefix, "   "...)
		} else {
			b = append(b, "├─ "...)
			prefix = append(prefix, "│  "...)
		}
	}
	b = appendLabel(b, n)
	b = append(b, '\n')

	kids := renderKids(n)
	for i, c := range kids {
		b, prefix = appendASCII(b, prefix, c, i == len(kids)-1, false)
	}
	return b, prefix[:mark]
}

// RenderInline renders n's subtree on one line in functional notation:
// retailer(name:"Brook Brothers", store(city:"Houston", ...)). Snippet
// comparisons in tests and the distinguishability metric use this canonical
// form.
func RenderInline(n *Node) string {
	return render(func(b []byte) []byte { return appendInline(b, n) })
}

func appendInline(b []byte, n *Node) []byte {
	b = appendLabel(b, n)
	kids := renderKids(n)
	if len(kids) == 0 {
		return b
	}
	b = append(b, '(')
	for i, c := range kids {
		if i > 0 {
			b = append(b, ", "...)
		}
		b = appendInline(b, c)
	}
	return append(b, ')')
}

// appendLabel folds attribute-shaped nodes to name:"value" and quotes text.
func appendLabel(b []byte, n *Node) []byte {
	switch {
	case n.IsText():
		b = append(b, '"')
		b = append(b, n.Value...)
	case n.HasSingleTextChild():
		b = append(b, n.Label...)
		b = append(b, `:"`...)
		b = append(b, n.Children[0].Value...)
	default:
		return append(b, n.Label...)
	}
	return append(b, '"')
}

// renderKids hides the text child of attribute-shaped nodes (it is folded
// into the parent's label).
func renderKids(n *Node) []*Node {
	if n.HasSingleTextChild() {
		return nil
	}
	return n.Children
}
