// Package dtd parses Document Type Definitions and answers the one question
// eXtract's node classifier asks of them: which element types are *-nodes,
// i.e. may repeat under a parent. Per the paper (§2.1, following XSeek), a
// node is an entity if it corresponds to a *-node in the DTD.
//
// The parser covers the declaration subset that matters for classification:
// ELEMENT declarations with full content models (sequences, choices,
// ?/*/+ quantifiers, mixed content, EMPTY, ANY) and ATTLIST declarations.
// ENTITY and NOTATION declarations, comments and processing instructions are
// tolerated and skipped.
package dtd

import "strings"

// Quantifier is a content-particle occurrence indicator.
type Quantifier uint8

const (
	// One means exactly one occurrence (no indicator).
	One Quantifier = iota
	// Opt means zero or one ('?').
	Opt
	// Star means zero or more ('*').
	Star
	// Plus means one or more ('+').
	Plus
)

// String returns the DTD syntax for the quantifier.
func (q Quantifier) String() string {
	switch q {
	case Opt:
		return "?"
	case Star:
		return "*"
	case Plus:
		return "+"
	default:
		return ""
	}
}

// Repeats reports whether the quantifier allows more than one occurrence.
func (q Quantifier) Repeats() bool { return q == Star || q == Plus }

// ParticleKind discriminates content-model particles.
type ParticleKind uint8

const (
	// PName is a reference to an element type.
	PName ParticleKind = iota
	// PSeq is a sequence group (a, b, c).
	PSeq
	// PChoice is a choice group (a | b | c).
	PChoice
)

// Particle is a node of a content-model expression tree.
type Particle struct {
	Kind     ParticleKind
	Name     string      // for PName
	Children []*Particle // for PSeq, PChoice
	Quant    Quantifier
}

// String renders the particle in DTD syntax.
func (p *Particle) String() string {
	var b strings.Builder
	p.write(&b)
	return b.String()
}

func (p *Particle) write(b *strings.Builder) {
	switch p.Kind {
	case PName:
		b.WriteString(p.Name)
	case PSeq, PChoice:
		sep := ", "
		if p.Kind == PChoice {
			sep = " | "
		}
		b.WriteString("(")
		for i, c := range p.Children {
			if i > 0 {
				b.WriteString(sep)
			}
			c.write(b)
		}
		b.WriteString(")")
	}
	b.WriteString(p.Quant.String())
}

// ContentKind discriminates element content specifications.
type ContentKind uint8

const (
	// ContentEmpty is EMPTY.
	ContentEmpty ContentKind = iota
	// ContentAny is ANY.
	ContentAny
	// ContentPCDATA is pure text content: (#PCDATA).
	ContentPCDATA
	// ContentMixed is mixed content: (#PCDATA | a | b)*.
	ContentMixed
	// ContentChildren is an element content model.
	ContentChildren
)

// ElementDecl is a parsed <!ELEMENT ...> declaration.
type ElementDecl struct {
	Name    string
	Content ContentKind
	Model   *Particle // for ContentChildren
	Mixed   []string  // element names allowed in ContentMixed
}

// AttDef is one attribute definition from an <!ATTLIST ...> declaration.
type AttDef struct {
	Element  string
	Name     string
	Type     string // CDATA, ID, IDREF, NMTOKEN, enumeration source text, ...
	Required bool
	Implied  bool
	Fixed    bool
	Default  string
}

// DTD is a parsed document type definition.
type DTD struct {
	Elements map[string]*ElementDecl
	Attrs    map[string][]AttDef // element name -> attribute definitions

	order []string // element declaration order, for deterministic output
}

// ElementNames returns the declared element names in declaration order.
func (d *DTD) ElementNames() []string {
	out := make([]string, len(d.order))
	copy(out, d.order)
	return out
}

// repeatable computes, for one content model, the set of child element names
// that may occur more than once: a name particle repeats if it or any
// enclosing group carries * or +, if it appears more than once in the model,
// or if it appears inside a group that itself repeats.
func repeatable(model *Particle) map[string]bool {
	rep := make(map[string]bool)
	seen := make(map[string]int)
	var walk func(p *Particle, inherited bool)
	walk = func(p *Particle, inherited bool) {
		r := inherited || p.Quant.Repeats()
		switch p.Kind {
		case PName:
			seen[p.Name]++
			if r || seen[p.Name] > 1 {
				rep[p.Name] = true
			}
		case PSeq, PChoice:
			for _, c := range p.Children {
				walk(c, r)
			}
		}
	}
	if model != nil {
		walk(model, false)
	}
	return rep
}

// StarChildren returns, for a declared element, the names of child element
// types that may repeat under it. Mixed content children are all considered
// repeatable (the XML spec allows any number in mixed content). For ANY
// content the answer is nil: repetition is unconstrained and callers should
// fall back to instance-based inference.
func (d *DTD) StarChildren(element string) map[string]bool {
	decl, ok := d.Elements[element]
	if !ok {
		return nil
	}
	switch decl.Content {
	case ContentChildren:
		return repeatable(decl.Model)
	case ContentMixed:
		rep := make(map[string]bool, len(decl.Mixed))
		for _, m := range decl.Mixed {
			rep[m] = true
		}
		return rep
	default:
		return nil
	}
}

// StarNodes returns the set of element names that are *-nodes: element types
// that may occur more than once under at least one declared parent. The
// document root is never a star node by this definition unless some
// declaration repeats it.
func (d *DTD) StarNodes() map[string]bool {
	stars := make(map[string]bool)
	for _, name := range d.order {
		for child, rep := range d.StarChildren(name) {
			if rep {
				stars[child] = true
			}
		}
	}
	return stars
}

// PCDATAOnly reports whether the element is declared with pure text content,
// the DTD-side signal for the paper's attribute nodes.
func (d *DTD) PCDATAOnly(element string) bool {
	decl, ok := d.Elements[element]
	return ok && decl.Content == ContentPCDATA
}
