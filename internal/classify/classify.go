// Package classify implements the XSeek-style node categorization eXtract
// builds on (paper §2.1): every XML node is an entity, an attribute, a
// connection node, or a value.
//
//   - A node is an entity if it corresponds to a *-node — an element type
//     that can occur multiple times under a parent. Star nodes come from the
//     DTD when one is supplied and from instance inference otherwise (a DTD
//     may also be combined with inference for undeclared labels).
//   - A node that is not a *-node and has exactly one child holding a text
//     value represents an attribute (together with that value).
//   - Everything else is a connection node.
//   - Text nodes are values.
package classify

import (
	"maps"
	"sort"

	"extract/internal/dtd"
	"extract/xmltree"
)

// Category is the classification of a node or element label.
type Category uint8

const (
	// Connection nodes glue entities and attributes together.
	Connection Category = iota
	// Entity nodes are instances of *-node element types.
	Entity
	// Attribute nodes wrap a single text value.
	Attribute
	// Value is the category of text nodes.
	Value
)

// String names the category.
func (c Category) String() string {
	switch c {
	case Entity:
		return "entity"
	case Attribute:
		return "attribute"
	case Connection:
		return "connection"
	case Value:
		return "value"
	default:
		return "invalid"
	}
}

// Option configures Classify.
type Option func(*config)

type config struct {
	dtd *dtd.DTD
}

// WithDTD supplies a DTD whose declarations take precedence over instance
// inference for the labels it declares.
func WithDTD(d *dtd.DTD) Option {
	return func(c *config) { c.dtd = d }
}

// Classification holds per-label categories for one corpus. Categories are
// assigned to labels, not node instances, so a classification computed on a
// document applies directly to query-result trees and snippet trees
// projected from it. Hot paths look a label up once per distinct label of
// what they process (a document's nodes carry integer label ids, see
// xmltree.Node.Sym) rather than once per node. The table is immutable after
// construction and safe for concurrent readers.
type Classification struct {
	byLabel map[string]Category
}

// Classify computes the classification of a document: the merge of its one
// partial.
func Classify(doc *xmltree.Document, opts ...Option) *Classification {
	return Merge([]*Partial{Infer(doc)}, opts...)
}

// Merge classifies a corpus from its shards' evidence (Infer of each shard
// document): the classification Classify computes over the whole document,
// however it was cut.
func Merge(parts []*Partial, opts ...Option) *Classification {
	var cfg config
	for _, o := range opts {
		o(&cfg)
	}

	sum := merge(parts)
	stars := sum.starNodes()
	attrLike := sum.attributeLike()

	declared := map[string]bool{}
	if cfg.dtd != nil {
		// DTD declarations override inference for declared labels.
		for _, name := range cfg.dtd.ElementNames() {
			declared[name] = true
		}
		dtdStars := cfg.dtd.StarNodes()
		for label := range declared {
			if dtdStars[label] {
				stars[label] = true
			} else if _, inferredOnly := sum[label]; !inferredOnly || cfg.dtd.Elements[label].Content != dtd.ContentAny {
				// Declared non-star with a definite content model:
				// trust the DTD over instance repetition.
				delete(stars, label)
			}
			if cfg.dtd.PCDATAOnly(label) {
				attrLike[label] = true
			}
		}
	}

	c := &Classification{byLabel: make(map[string]Category, len(sum))}
	for label := range sum {
		c.byLabel[label] = categorize(label, stars, attrLike)
	}
	if cfg.dtd != nil {
		for _, label := range cfg.dtd.ElementNames() {
			c.byLabel[label] = categorize(label, stars, attrLike)
		}
	}
	return c
}

func categorize(label string, stars, attrLike map[string]bool) Category {
	switch {
	case stars[label]:
		return Entity
	case attrLike[label]:
		return Attribute
	default:
		return Connection
	}
}

// FromCategories reconstructs a Classification from explicit per-label
// categories (used when loading a persisted corpus, where the original
// decisions — possibly DTD-derived — must be restored verbatim).
func FromCategories(cats map[string]Category) *Classification {
	return &Classification{byLabel: maps.Clone(cats)}
}

// Categories returns the label-to-category map (a copy), the inverse of
// FromCategories.
func (c *Classification) Categories() map[string]Category {
	return maps.Clone(c.byLabel)
}

// Equal reports whether c and o assign every label the same category.
func (c *Classification) Equal(o *Classification) bool {
	return c == o || c != nil && o != nil && maps.Equal(c.byLabel, o.byLabel)
}

// OfLabel returns the category assigned to an element label. Unknown labels
// classify as Connection.
func (c *Classification) OfLabel(label string) Category {
	return c.byLabel[label]
}

// IsEntity reports whether the node is an entity instance.
func (c *Classification) IsEntity(n *xmltree.Node) bool {
	return n.IsElement() && c.OfLabel(n.Label) == Entity
}

// IsAttribute reports whether the node is an attribute instance.
func (c *Classification) IsAttribute(n *xmltree.Node) bool {
	return n.IsElement() && c.OfLabel(n.Label) == Attribute
}

// Entities returns all entity labels, sorted.
func (c *Classification) Entities() []string { return c.withCategory(Entity) }

// Attributes returns all attribute labels, sorted.
func (c *Classification) Attributes() []string { return c.withCategory(Attribute) }

// Connections returns all connection labels, sorted.
func (c *Classification) Connections() []string { return c.withCategory(Connection) }

func (c *Classification) withCategory(want Category) []string {
	var out []string
	for label, cat := range c.byLabel {
		if cat == want {
			out = append(out, label)
		}
	}
	sort.Strings(out)
	return out
}

// EntityOwnerWithin returns the nearest ancestor-or-self of n that is an
// entity instance, with the climb stopped at root (inclusive; nil climbs to
// the document root), or nil. Attributes and values belong to the entity
// returned here; this resolves the e of a feature (e, a, v). A query result
// may be a view rooted below an entity of its source document, and an owner
// outside the result is not part of it.
func (c *Classification) EntityOwnerWithin(n, root *xmltree.Node) *xmltree.Node {
	for m := n; m != nil; m = m.Parent {
		if c.IsEntity(m) {
			return m
		}
		if m == root {
			break
		}
	}
	return nil
}
