// Package keys mines key attributes of entity types from XML data. The
// paper's Query Result Key Identifier ("after mining the keys of entities in
// the data", §2.2) relies on this: the key value of a result's return entity
// becomes the key of the query result, playing the role a document title
// plays in text search snippets.
//
// An attribute a is a key candidate for entity type e when every instance of
// e carries exactly one a and no two instances share a value. Among
// candidates, a deterministic preference order picks the key: conventional
// identifier names first (id, key), then naming attributes (name, title),
// then lexicographic.
package keys

import (
	"sort"
	"strings"

	"extract/internal/classify"
	"extract/xmltree"
)

// Candidate records the mining evidence for one (entity, attribute) pair.
type Candidate struct {
	Entity string
	Attr   string

	Instances int // entity instances observed
	Present   int // instances carrying exactly one value of Attr
	Distinct  int // distinct values observed

	// Unique reports whether Attr is total and duplicate-free for Entity:
	// the key condition.
	Unique bool
}

// Keys is the result of mining one corpus.
type Keys struct {
	key        map[string]string
	candidates map[string][]Candidate
}

// Mine scans the document and returns the mined keys for every entity label
// in the classification.
func Mine(doc *xmltree.Document, cls *classify.Classification) *Keys {
	type pairStats struct {
		present int
		multi   int
		values  map[string]int
	}
	instances := make(map[string]int)
	pairs := make(map[string]map[string]*pairStats) // entity -> attr -> stats

	for _, n := range doc.Nodes() {
		if !cls.IsEntity(n) {
			continue
		}
		instances[n.Label]++
		attrs := pairs[n.Label]
		if attrs == nil {
			attrs = make(map[string]*pairStats)
			pairs[n.Label] = attrs
		}
		// Count the instance's attributes by label. An entity owns the
		// attribute nodes reachable through connection nodes (XSeek's
		// view: store/contact/name is still a store attribute), but not
		// those of nested entities.
		perAttr := make(map[string][]string)
		collectAttrs(n, cls, func(a *xmltree.Node) bool {
			perAttr[a.Label] = append(perAttr[a.Label], a.TextValue())
			return true
		})
		for attr, vals := range perAttr {
			st := attrs[attr]
			if st == nil {
				st = &pairStats{values: make(map[string]int)}
				attrs[attr] = st
			}
			if len(vals) == 1 {
				st.present++
				st.values[vals[0]]++
			} else {
				st.multi++
			}
		}
	}

	k := &Keys{key: make(map[string]string), candidates: make(map[string][]Candidate)}
	for entity, attrs := range pairs {
		total := instances[entity]
		var cands []Candidate
		for attr, st := range attrs {
			dupFree := true
			for _, c := range st.values {
				if c > 1 {
					dupFree = false
					break
				}
			}
			cands = append(cands, Candidate{
				Entity:    entity,
				Attr:      attr,
				Instances: total,
				Present:   st.present,
				Distinct:  len(st.values),
				Unique:    st.multi == 0 && st.present == total && dupFree && total > 0,
			})
		}
		sort.Slice(cands, func(i, j int) bool {
			a, b := cands[i], cands[j]
			if a.Unique != b.Unique {
				return a.Unique
			}
			pa, pb := namePriority(a.Attr), namePriority(b.Attr)
			if pa != pb {
				return pa < pb
			}
			return a.Attr < b.Attr
		})
		k.candidates[entity] = cands
		if len(cands) > 0 && cands[0].Unique {
			k.key[entity] = cands[0].Attr
		}
	}
	return k
}

// namePriority ranks attribute names by how conventionally key-like they
// are. Lower is more preferred.
func namePriority(attr string) int {
	l := strings.ToLower(attr)
	switch l {
	case "id", "key":
		return 0
	case "isbn", "issn", "ssn", "sku", "email":
		return 1
	case "name", "title":
		return 2
	}
	if strings.HasSuffix(l, "id") || strings.HasSuffix(l, "key") {
		return 3
	}
	if strings.HasSuffix(l, "name") {
		return 4
	}
	return 5
}

// FromMap reconstructs Keys from an explicit entity-to-key-attribute map
// (used when loading a persisted corpus). Candidate evidence is not
// restored — only the decisions.
func FromMap(m map[string]string) *Keys {
	k := &Keys{key: make(map[string]string, len(m)), candidates: make(map[string][]Candidate)}
	for e, a := range m {
		k.key[e] = a
	}
	return k
}

// KeyAttr returns the mined key attribute for an entity label.
func (k *Keys) KeyAttr(entity string) (string, bool) {
	a, ok := k.key[entity]
	return a, ok
}

// Candidates returns the mining evidence for an entity label, best first.
func (k *Keys) Candidates(entity string) []Candidate {
	return k.candidates[entity]
}

// Entities returns the entity labels that have a mined key, sorted.
func (k *Keys) Entities() []string {
	out := make([]string, 0, len(k.key))
	for e := range k.key {
		out = append(out, e)
	}
	sort.Strings(out)
	return out
}

// collectAttrs visits, in document order, the attribute nodes owned by
// entity instance n — its attribute descendants reachable without crossing
// another entity — until fn returns false; it reports whether every visit
// returned true. Each child's label is classified once.
func collectAttrs(n *xmltree.Node, cls *classify.Classification, fn func(*xmltree.Node) bool) bool {
	for _, c := range n.Children {
		if !c.IsElement() {
			continue
		}
		switch cat := cls.OfLabel(c.Label); {
		case cat == classify.Attribute && c.HasSingleTextChild():
			if !fn(c) {
				return false
			}
		case cat == classify.Entity:
			// nested entity: its attributes are its own
		default:
			if !collectAttrs(c, cls, fn) { // connection node: look through
				return false
			}
		}
	}
	return true
}

// KeyNodeOf returns the key attribute of an entity instance and the node
// carrying it (nil when this instance has none); ok is false when the entity
// label has no mined key. The key attribute is located like Mine located it:
// among the attribute descendants reachable through connection nodes, first
// in document order. The instance may come from the document or from a
// projection of it.
func (k *Keys) KeyNodeOf(cls *classify.Classification, n *xmltree.Node) (attr string, node *xmltree.Node, ok bool) {
	a, ok := k.key[n.Label]
	if !ok {
		return "", nil, false
	}
	collectAttrs(n, cls, func(c *xmltree.Node) bool {
		if c.Label == a {
			node = c
		}
		return node == nil
	})
	return a, node, true
}

// KeyValueOf returns the key attribute of an entity instance and its value
// (see KeyNodeOf).
func (k *Keys) KeyValueOf(cls *classify.Classification, n *xmltree.Node) (attr, value string, ok bool) {
	a, found, ok := k.KeyNodeOf(cls, n)
	if !ok || found == nil {
		return a, "", false
	}
	return a, found.TextValue(), true
}
