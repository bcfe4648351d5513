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
//
// Mining splits over a corpus's shards: each collects its evidence
// (Collect), and Merge decides from the shards' evidence what one pass over
// the whole document decides. Mine is the merge of one.
package keys

import (
	"maps"
	"slices"
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

// Partial is one document's key-mining evidence under a classification: a
// shard's share of its corpus's (see Merge). Per (entity, attribute) pair it
// holds sums — instances with one value, instances with several — and
// whether the pair is duplicate-free within the shard; a pair still unique
// in the shard keeps its sorted value set too, for the merge to check that
// no value occurs in two shards. The root is one instance whose attributes
// may sit in every shard (a shard's root is a copy of it), so its evidence
// is kept apart.
type Partial struct {
	instances map[string]int // entity label → instances, the root excepted
	pairs     map[string]map[string]*evidence
	root      string
	// rootAttrs are, when the root is an entity, the values of the
	// attributes its children here give it.
	rootAttrs map[string][]string
}

// evidence is one (entity, attribute) pair's evidence in one shard.
type evidence struct {
	present  int  // instances carrying exactly one value
	multi    int  // instances carrying several
	distinct int  // distinct values among the present ones
	dupFree  bool // no value carried by two instances
	// values are the distinct values, sorted: kept while the pair is unique
	// in the shard, and for the root's label, whose evidence Merge completes.
	values []string
}

// Mine scans the document and returns the mined keys for every entity label
// in the classification, candidate evidence included: the merge of the
// document's one partial.
func Mine(doc *xmltree.Document, cls *classify.Classification) *Keys {
	return Merge([]*Partial{Collect(doc, cls)})
}

// Collect scans doc once and returns its evidence under cls. doc's root is
// taken for the corpus root, of which a shard's root is a copy.
func Collect(doc *xmltree.Document, cls *classify.Classification) *Partial {
	p := &Partial{instances: make(map[string]int), pairs: make(map[string]map[string]*evidence)}
	nodes := doc.Nodes()
	if len(nodes) == 0 {
		return p
	}
	root := nodes[0]
	p.root = root.Label
	if cls.IsEntity(root) {
		p.rootAttrs = make(map[string][]string)
		collectAttrs(root, cls, func(a *xmltree.Node) bool {
			p.rootAttrs[a.Label] = append(p.rootAttrs[a.Label], a.TextValue())
			return true
		})
	}
	type tally struct {
		present, multi int
		values         map[string]int
	}
	tallies := make(map[string]map[string]*tally)
	// The current instance's attributes, one entry per label, and where
	// each label's entry is: at[sym] is the entry of the label whose symbol
	// id is sym, plus one. Both are reused from one instance to the next.
	type attr struct {
		sym          int32
		label, value string
		n            int
	}
	var cur []attr
	var at []int32
	for _, n := range nodes[1:] {
		if !cls.IsEntity(n) {
			continue
		}
		p.instances[n.Label]++
		attrs := tallies[n.Label]
		if attrs == nil {
			attrs = make(map[string]*tally)
			tallies[n.Label] = attrs
		}
		// Count the instance's attributes by label. An entity owns the
		// attribute nodes reachable through connection nodes (XSeek's
		// view: store/contact/name is still a store attribute), but not
		// those of nested entities.
		cur = cur[:0]
		collectAttrs(n, cls, func(a *xmltree.Node) bool {
			if int(a.Sym) >= len(at) {
				at = slices.Grow(at, int(a.Sym)+1-len(at))[:a.Sym+1]
			}
			if k := at[a.Sym]; k > 0 {
				cur[k-1].n++
				return true
			}
			cur = append(cur, attr{sym: a.Sym, label: a.Label, value: a.TextValue(), n: 1})
			at[a.Sym] = int32(len(cur))
			return true
		})
		for _, a := range cur {
			at[a.sym] = 0
			t := attrs[a.label]
			if t == nil {
				t = &tally{values: make(map[string]int)}
				attrs[a.label] = t
			}
			if a.n == 1 {
				t.present++
				t.values[a.value]++
			} else {
				t.multi++
			}
		}
	}
	for entity, attrs := range tallies {
		evs := make(map[string]*evidence, len(attrs))
		for attr, t := range attrs {
			ev := &evidence{present: t.present, multi: t.multi, distinct: len(t.values), dupFree: true}
			for _, c := range t.values {
				if c > 1 {
					ev.dupFree = false
					break
				}
			}
			if ev.dupFree && ev.multi == 0 && ev.present == p.instances[entity] || entity == p.root {
				ev.values = slices.Sorted(maps.Keys(t.values))
			}
			evs[attr] = ev
		}
		p.pairs[entity] = evs
	}
	return p
}

// Merge mines a corpus's keys from its shards' evidence — Collect of each
// shard document under one classification — deciding what Mine decides over
// the whole document: a pair is a key candidate when, summed over the
// shards, every instance carries exactly one value of it, and no value
// occurs twice, within a shard or across two (the kept value sets are
// disjoint). A merge of one partial keeps the candidate evidence; a merge of
// several carries the decisions alone, as a corpus loaded from an image does
// (FromMap).
func Merge(parts []*Partial) *Keys {
	type pair struct {
		present, multi, distinct int
		dupFree                  bool
		sets                     [][]string
	}
	instances := make(map[string]int)
	pairs := make(map[string]map[string]*pair)
	get := func(entity, attr string) *pair {
		attrs := pairs[entity]
		if attrs == nil {
			attrs = make(map[string]*pair)
			pairs[entity] = attrs
		}
		m := attrs[attr]
		if m == nil {
			m = &pair{dupFree: true}
			attrs[attr] = m
		}
		return m
	}
	root, rootAttrs := "", map[string][]string(nil)
	for _, p := range parts {
		for entity, k := range p.instances {
			instances[entity] += k
		}
		for entity, evs := range p.pairs {
			for attr, ev := range evs {
				m := get(entity, attr)
				m.present += ev.present
				m.multi += ev.multi
				m.distinct += ev.distinct
				m.dupFree = m.dupFree && ev.dupFree
				if ev.values != nil {
					m.sets = append(m.sets, ev.values)
				}
			}
		}
		if p.rootAttrs != nil {
			if rootAttrs == nil {
				rootAttrs = make(map[string][]string)
			}
			root = p.root
			for attr, vs := range p.rootAttrs {
				rootAttrs[attr] = append(rootAttrs[attr], vs...)
			}
		}
	}
	if rootAttrs != nil {
		// The root is one instance, wherever its attributes sit.
		instances[root]++
		for attr, vs := range rootAttrs {
			m := get(root, attr)
			if len(vs) > 1 {
				m.multi++
				continue
			}
			seen := slices.ContainsFunc(m.sets, func(set []string) bool {
				_, found := slices.BinarySearch(set, vs[0])
				return found
			})
			if !seen {
				m.distinct++
			}
			m.present++
			m.sets = append(m.sets, vs)
		}
	}

	k := &Keys{key: make(map[string]string), candidates: make(map[string][]Candidate)}
	for entity, attrs := range pairs {
		total := instances[entity]
		var cands []Candidate
		for attr, m := range attrs {
			cands = append(cands, Candidate{
				Entity:    entity,
				Attr:      attr,
				Instances: total,
				Present:   m.present,
				Distinct:  m.distinct,
				Unique:    m.multi == 0 && m.present == total && m.dupFree && total > 0 && disjoint(m.sets),
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
		if len(parts) == 1 {
			k.candidates[entity] = cands
		}
		if len(cands) > 0 && cands[0].Unique {
			k.key[entity] = cands[0].Attr
		}
	}
	return k
}

// disjoint reports whether no string is in two of the sorted sets, each of
// them free of repeats: a merge of the sets that stops at the first value
// met twice.
func disjoint(sets [][]string) bool {
	if len(sets) < 2 {
		return true
	}
	next := make([]int, len(sets))
	last, met := "", false
	for {
		least := -1
		for i, set := range sets {
			if next[i] < len(set) && (least < 0 || set[next[i]] < sets[least][next[least]]) {
				least = i
			}
		}
		if least < 0 {
			return true
		}
		v := sets[least][next[least]]
		if met && v == last {
			return false
		}
		last, met = v, true
		next[least]++
	}
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
