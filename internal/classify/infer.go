package classify

import "extract/xmltree"

// labelInfo is the instance evidence about one element label, the paper's
// "XML data structure" side of classification. Each field folds over
// elements — a sum, an or, an and — so the evidence of two parts of a
// document merges label by label.
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

// info returns label's row, adding an empty one.
func (s summary) info(label string) *labelInfo {
	e := s[label]
	if e == nil {
		e = &labelInfo{singleText: true}
		s[label] = e
	}
	return e
}

// Partial is one document's classification evidence: a shard's share of its
// corpus's (see Merge). It holds the row of every element but the root. A
// shard's root is a copy of the corpus root, whose children span every
// shard, so the root's row is left to the merge, which builds it from what
// each shard tallies of its root's children.
type Partial struct {
	rows    summary
	root    string
	hasRoot bool
	top     map[string]int // the root's element children, counted by label
	kids    int            // the root's children
	texts   int            // the root's text children
}

// Infer walks doc once and returns its evidence. Text nodes and
// attribute-shaped children participate exactly like parsed elements, so the
// inference is insensitive to whether data arrived as XML attributes or as
// child elements.
func Infer(doc *xmltree.Document) *Partial {
	p := &Partial{rows: make(summary), top: make(map[string]int)}
	nodes := doc.Nodes()
	if len(nodes) == 0 {
		return p
	}
	root := nodes[0]
	p.root, p.hasRoot = root.Label, true
	for _, c := range root.Children {
		p.kids++
		if c.IsElement() {
			p.top[c.Label]++
		} else {
			p.texts++
		}
	}
	for _, n := range nodes[1:] {
		if !n.IsElement() {
			continue
		}
		e := p.rows.info(n.Label)
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
				p.rows.info(label).repeats = true
			}
		}
	}
	return p
}

// merge folds partials into the summary of the document they cut, the
// root's row included.
func merge(parts []*Partial) summary {
	s := make(summary)
	top := make(map[string]int)
	root, hasRoot, kids, texts := "", false, 0, 0
	for _, p := range parts {
		for label, e := range p.rows {
			m := s.info(label)
			m.count += e.count
			m.repeats = m.repeats || e.repeats
			m.singleText = m.singleText && e.singleText
		}
		for label, k := range p.top {
			top[label] += k
		}
		kids, texts = kids+p.kids, texts+p.texts
		if p.hasRoot {
			root, hasRoot = p.root, true
		}
	}
	if hasRoot {
		e := s.info(root)
		e.count++
		if kids != 1 || texts != 1 {
			e.singleText = false
		}
		for label, k := range top {
			if k >= 2 {
				s.info(label).repeats = true
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
