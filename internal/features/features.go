// Package features implements eXtract's Dominant Feature Identifier (paper
// §2.3). A feature is a triplet (entity name e, attribute name a, attribute
// value v); (e, a) is the feature's type. Over one query result the package
// collects the occurrence count N(e,a,v) of every feature, the total
// occurrences N(e,a) and domain size D(e,a) of every type, and scores
// features by normalized frequency:
//
//	DS(f) = N(e,a,v) / (N(e,a) / D(e,a))
//
// A feature is dominant when DS(f) > 1, or trivially when its type's domain
// has a single value (D(e,a) = 1). Dominance corrects for the two biases the
// paper identifies in raw occurrence counts: small domains inflate
// occurrences, and frequent feature types inflate all their values.
//
// Collection is flat-array based: entity and attribute labels use the
// dense ids interned by the classification, attribute values are interned
// into a Collector-local table, and per-feature statistics accumulate in
// id-indexed slices keyed by a packed integer instead of a three-string
// struct map. Entity owners are resolved by a stack carried down the single
// collection walk, not by per-node parent climbs. A Collector can be
// reused across results, keeping its interning tables and scratch buffers
// warm (see core.Generator).
package features

import (
	"fmt"
	"sort"

	"extract/internal/classify"
	"extract/xmltree"
)

// Type identifies a feature type (e, a).
type Type struct {
	Entity string
	Attr   string
}

// String renders the type as (e, a).
func (t Type) String() string { return "(" + t.Entity + ", " + t.Attr + ")" }

// Feature is a concrete (e, a, v) triplet.
type Feature struct {
	Type
	Value string
}

// String renders the feature as (e, a, v).
func (f Feature) String() string {
	return "(" + f.Entity + ", " + f.Attr + ", " + f.Value + ")"
}

// Stats holds the feature statistics of one query result. Internally every
// observed feature and feature type has a dense id (first-seen order); the
// string-keyed lookups exist only for the by-Feature accessor API and hold
// one entry per distinct feature, not per occurrence.
type Stats struct {
	feats     []Feature // by feature id, first-seen order
	n         []int32   // N(e,a,v) by feature id
	featType  []int32   // feature id -> type id
	instances [][]*xmltree.Node

	types []Type  // by type id, first-seen order
	typeN []int32 // N(e,a) by type id
	typeD []int32 // D(e,a) by type id

	featID map[Feature]int32
	typeID map[Type]int32

	// Result-shape extras gathered on the same walk, consumed by the
	// IList builder so it does not re-walk the tree.
	entityLabels []string // distinct entity labels, first-seen order
	firstEntity  map[string]*xmltree.Node
}

// Collector gathers feature statistics. It interns attribute values (and
// labels unknown to the classification) into integer ids and keeps those
// tables plus its walk scratch across calls, so a generator snippeting many
// results of one corpus pays the interning cost once. A Collector is NOT
// safe for concurrent use; pool Collectors to share across goroutines.
type Collector struct {
	cls *classify.Classification

	values map[string]int32 // attribute value -> id, persistent
	extra  map[string]int32 // labels unknown to cls -> id, persistent

	// acc maps packed (entityID, attrID, valueID) keys to feature ids and
	// (entityID, attrID) to type ids; cleared per collect.
	acc     map[uint64]int32
	accType map[uint64]int32
}

// NewCollector returns a Collector for results classified by cls.
func NewCollector(cls *classify.Classification) *Collector {
	return &Collector{
		cls:     cls,
		values:  make(map[string]int32),
		extra:   make(map[string]int32),
		acc:     make(map[uint64]int32),
		accType: make(map[uint64]int32),
	}
}

// Packed-key field widths: 20 bits for each label id, 24 bits for value
// ids. Interning guards below keep ids inside these ranges so keys can
// never silently collide.
const (
	maxLabelID = 1<<20 - 1
	maxValueID = 1<<24 - 1
)

// labelID returns the dense id of a label, extending past the
// classification's table for labels it does not know.
func (c *Collector) labelID(label string, id int32) int32 {
	if id >= 0 {
		return id
	}
	ex, ok := c.extra[label]
	if !ok {
		ex = int32(c.cls.LabelCount() + len(c.extra))
		c.extra[label] = ex
	}
	return ex
}

// Collect walks a query-result tree once and gathers its feature
// statistics. An occurrence is an attribute node (per the classification)
// holding a single text value whose nearest entity ancestor exists; the
// feature is (entity label, attribute label, value). The same walk records
// the entity labels present and the first instance of each, for the IList
// builder.
func (c *Collector) Collect(root *xmltree.Node) *Stats {
	s := &Stats{
		featID:      make(map[Feature]int32),
		typeID:      make(map[Type]int32),
		firstEntity: make(map[string]*xmltree.Node),
	}
	if root == nil {
		return s
	}
	clear(c.acc)
	clear(c.accType)
	// Value ids persist across results as a warm cache, but they must stay
	// inside the 24-bit key field: once the table is half full, reset it
	// (ids are only referenced through acc, which is cleared above, so a
	// reset is always safe between results).
	if len(c.values) > maxValueID/2 {
		clear(c.values)
	}

	var walk func(n *xmltree.Node, owner *xmltree.Node, ownerID int32)
	walk = func(n *xmltree.Node, owner *xmltree.Node, ownerID int32) {
		if n.IsElement() {
			id, cat := c.cls.LabelInfo(n.Label)
			switch cat {
			case classify.Entity:
				if _, seen := s.firstEntity[n.Label]; !seen {
					s.firstEntity[n.Label] = n
					s.entityLabels = append(s.entityLabels, n.Label)
				}
				owner, ownerID = n, c.labelID(n.Label, id)
			case classify.Attribute:
				if owner != nil && n.HasSingleTextChild() {
					c.record(s, owner, ownerID, n, c.labelID(n.Label, id))
				}
			}
		}
		for _, ch := range n.Children {
			walk(ch, owner, ownerID)
		}
	}
	walk(root, nil, -1)

	// Derive per-type totals and domain sizes from the id-indexed rows.
	for fid, tid := range s.featType {
		s.typeN[tid] += s.n[fid]
		s.typeD[tid]++
	}
	return s
}

// record accumulates one attribute occurrence (owner, attr, value).
func (c *Collector) record(s *Stats, owner *xmltree.Node, ownerID int32, attr *xmltree.Node, attrID int32) {
	value := attr.Children[0].Value
	vid, ok := c.values[value]
	if !ok {
		vid = int32(len(c.values))
		c.values[value] = vid
	}
	// The packed key keeps the hot map integer-keyed. Field overflow would
	// silently merge distinct features, so it fails loudly instead: a
	// single result with >8M distinct values or a corpus with >1M labels
	// is outside the design envelope (ords are int32 to begin with).
	if ownerID > maxLabelID || attrID > maxLabelID || vid > maxValueID {
		panic("features: interned id overflows packed key field")
	}
	key := uint64(ownerID)<<44 | uint64(attrID)<<24 | uint64(vid)
	fid, ok := c.acc[key]
	if !ok {
		f := Feature{Type: Type{Entity: owner.Label, Attr: attr.Label}, Value: value}
		tkey := key >> 24
		tid, tok := c.accType[tkey]
		if !tok {
			tid = int32(len(s.types))
			c.accType[tkey] = tid
			s.types = append(s.types, f.Type)
			s.typeN = append(s.typeN, 0)
			s.typeD = append(s.typeD, 0)
			s.typeID[f.Type] = tid
		}
		fid = int32(len(s.feats))
		c.acc[key] = fid
		s.feats = append(s.feats, f)
		s.n = append(s.n, 0)
		s.featType = append(s.featType, tid)
		s.instances = append(s.instances, nil)
		s.featID[f] = fid
	}
	s.n[fid]++
	s.instances[fid] = append(s.instances[fid], attr)
}

// Collect walks a query-result tree and gathers its feature statistics
// with a fresh Collector. Callers generating many snippets should hold a
// Collector (or core.Generator) instead.
func Collect(root *xmltree.Node, cls *classify.Classification) *Stats {
	return NewCollector(cls).Collect(root)
}

// N returns the occurrence count N(e,a,v) of f in the result.
func (s *Stats) N(f Feature) int {
	if id, ok := s.featID[f]; ok {
		return int(s.n[id])
	}
	return 0
}

// TypeN returns N(e,a): total value occurrences of the type.
func (s *Stats) TypeN(t Type) int {
	if id, ok := s.typeID[t]; ok {
		return int(s.typeN[id])
	}
	return 0
}

// TypeD returns D(e,a): the number of distinct values of the type.
func (s *Stats) TypeD(t Type) int {
	if id, ok := s.typeID[t]; ok {
		return int(s.typeD[id])
	}
	return 0
}

// Dominance returns DS(f). Features absent from the result score 0.
func (s *Stats) Dominance(f Feature) float64 {
	id, ok := s.featID[f]
	if !ok {
		return 0
	}
	return s.dominanceID(id)
}

func (s *Stats) dominanceID(id int32) float64 {
	n := s.n[id]
	if n == 0 {
		return 0
	}
	tid := s.featType[id]
	tn, td := s.typeN[tid], s.typeD[tid]
	if tn == 0 || td == 0 {
		return 0
	}
	return float64(n) / (float64(tn) / float64(td))
}

// IsDominant reports whether f is dominant: DS(f) > 1, or D(e,a) == 1 (a
// single-valued type is trivially dominant even though its score is 1).
func (s *Stats) IsDominant(f Feature) bool {
	id, ok := s.featID[f]
	if !ok {
		return false
	}
	return s.isDominantID(id)
}

func (s *Stats) isDominantID(id int32) bool {
	if s.n[id] == 0 {
		return false
	}
	if s.typeD[s.featType[id]] == 1 {
		return true
	}
	return s.dominanceID(id) > 1
}

// Instances returns the attribute nodes carrying f, in document order.
func (s *Stats) Instances(f Feature) []*xmltree.Node {
	if id, ok := s.featID[f]; ok {
		return s.instances[id]
	}
	return nil
}

// Features returns every observed feature in first-seen order.
func (s *Stats) Features() []Feature {
	out := make([]Feature, len(s.feats))
	copy(out, s.feats)
	return out
}

// Types returns every observed feature type, sorted.
func (s *Stats) Types() []Type {
	out := make([]Type, len(s.types))
	copy(out, s.types)
	sort.Slice(out, func(i, j int) bool {
		if out[i].Entity != out[j].Entity {
			return out[i].Entity < out[j].Entity
		}
		return out[i].Attr < out[j].Attr
	})
	return out
}

// EntityLabels returns the distinct entity labels present in the result, in
// first-seen (document) order. The slice is shared and must not be
// modified.
func (s *Stats) EntityLabels() []string { return s.entityLabels }

// FirstEntity returns the first entity instance with the given label in
// document order, or nil.
func (s *Stats) FirstEntity(label string) *xmltree.Node { return s.firstEntity[label] }

// Scored pairs a feature with its dominance score.
type Scored struct {
	Feature Feature
	Score   float64
}

// Dominant returns all dominant features in decreasing dominance score;
// ties break by feature (entity, attr, value) for determinism.
func (s *Stats) Dominant() []Scored {
	var out []Scored
	for id := range s.feats {
		if s.isDominantID(int32(id)) {
			out = append(out, Scored{Feature: s.feats[id], Score: s.dominanceID(int32(id))})
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Score != out[j].Score {
			return out[i].Score > out[j].Score
		}
		fi, fj := out[i].Feature, out[j].Feature
		if fi.Entity != fj.Entity {
			return fi.Entity < fj.Entity
		}
		if fi.Attr != fj.Attr {
			return fi.Attr < fj.Attr
		}
		return fi.Value < fj.Value
	})
	return out
}

// Report renders a per-type histogram like the right side of the paper's
// Figure 1 ("attribute: value: number of occurrences").
func (s *Stats) Report() string {
	var b []byte
	for _, t := range s.Types() {
		b = append(b, fmt.Sprintf("%s:  N=%d D=%d\n", t, s.TypeN(t), s.TypeD(t))...)
		var fs []Feature
		for _, f := range s.feats {
			if f.Type == t {
				fs = append(fs, f)
			}
		}
		sort.Slice(fs, func(i, j int) bool {
			if s.N(fs[i]) != s.N(fs[j]) {
				return s.N(fs[i]) > s.N(fs[j])
			}
			return fs[i].Value < fs[j].Value
		})
		for _, f := range fs {
			b = append(b, fmt.Sprintf("  %s: %d  (DS=%.2f)\n", f.Value, s.N(f), s.Dominance(f))...)
		}
	}
	return string(b)
}

// CollectBaseline is the pre-flattening implementation: per-node parent
// climbs for entity owners and three-string struct map keys per
// occurrence. Retained as the "before" side of the perf-regression harness
// and as the reference in equivalence tests.
func CollectBaseline(root *xmltree.Node, cls *classify.Classification) *Stats {
	s := &Stats{
		featID:      make(map[Feature]int32),
		typeID:      make(map[Type]int32),
		firstEntity: make(map[string]*xmltree.Node),
	}
	if root == nil {
		return s
	}
	n := make(map[Feature]int)
	instances := make(map[Feature][]*xmltree.Node)
	var order []Feature
	root.Walk(func(m *xmltree.Node) bool {
		if cls.IsEntity(m) {
			if _, seen := s.firstEntity[m.Label]; !seen {
				s.firstEntity[m.Label] = m
				s.entityLabels = append(s.entityLabels, m.Label)
			}
		}
		if !cls.IsAttribute(m) || !m.HasSingleTextChild() {
			return true
		}
		owner := cls.EntityOwnerWithin(m, root)
		if owner == nil {
			return true
		}
		f := Feature{Type: Type{Entity: owner.Label, Attr: m.Label}, Value: m.TextValue()}
		if n[f] == 0 {
			order = append(order, f)
		}
		n[f]++
		instances[f] = append(instances[f], m)
		return true
	})
	for _, f := range order {
		tid, ok := s.typeID[f.Type]
		if !ok {
			tid = int32(len(s.types))
			s.typeID[f.Type] = tid
			s.types = append(s.types, f.Type)
			s.typeN = append(s.typeN, 0)
			s.typeD = append(s.typeD, 0)
		}
		fid := int32(len(s.feats))
		s.featID[f] = fid
		s.feats = append(s.feats, f)
		s.n = append(s.n, int32(n[f]))
		s.featType = append(s.featType, tid)
		s.instances = append(s.instances, instances[f])
		s.typeN[tid] += int32(n[f])
		s.typeD[tid]++
	}
	return s
}
