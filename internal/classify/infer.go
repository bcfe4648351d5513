package classify

import "extract/xmltree"

// labelInfo is the instance evidence about one element label, the paper's
// "XML data structure" side of classification.
type labelInfo struct {
	count int // number of element instances with this label

	// repeats is true if some parent instance has two or more children
	// with this label: the instance-based *-node signal.
	repeats bool

	// singleText is true if every instance has exactly one child and that
	// child is a text node: the instance-based attribute signal.
	singleText bool
}

// summary is the inferred per-label schema of a document.
type summary map[string]*labelInfo

// infer walks the document once and computes its summary. Text nodes and
// attribute-shaped children participate exactly like parsed elements, so the
// inference is insensitive to whether data arrived as XML attributes or as
// child elements.
func infer(doc *xmltree.Document) summary {
	s := make(summary)
	info := func(label string) *labelInfo {
		e := s[label]
		if e == nil {
			e = &labelInfo{singleText: true}
			s[label] = e
		}
		return e
	}
	for _, n := range doc.Nodes() {
		if !n.IsElement() {
			continue
		}
		e := info(n.Label)
		e.count++
		if !n.HasSingleTextChild() {
			e.singleText = false
		}
		if len(n.Children) < 2 {
			continue // no label can repeat under this node
		}
		counts := make(map[string]int)
		for _, c := range n.Children {
			if c.IsElement() {
				counts[c.Label]++
			}
		}
		for label, k := range counts {
			if k >= 2 {
				info(label).repeats = true
			}
		}
	}
	return s
}

// starNodes returns the labels inferred to be *-nodes: labels repeating
// under at least one parent instance.
func (s summary) starNodes() map[string]bool {
	stars := make(map[string]bool)
	for label, e := range s {
		if e.repeats {
			stars[label] = true
		}
	}
	return stars
}

// attributeLike returns the labels whose every instance wraps exactly one
// text value.
func (s summary) attributeLike() map[string]bool {
	attrs := make(map[string]bool)
	for label, e := range s {
		if e.singleText && e.count > 0 {
			attrs[label] = true
		}
	}
	return attrs
}
