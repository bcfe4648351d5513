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
// These statistics are counts over the result's subtree — over one preorder
// interval — so they are computed as a fold over the result's elements as
// index.Columns: position, subtree end, label symbol, parent entry, value
// symbol, no pointer and no string. A result of an indexed document is an
// interval of a position space (index.Whole), whose elements are the run of
// the space's columns inside it, found by two binary searches, and the fold
// dereferences no node but one per distinct label; a tree that has no index
// (a result decoded from the wire, a projection, an owned copy) has the same
// columns filled from its nodes into the collector's scratch and is folded by
// the same code. There is one fold (Collector.fold).
//
// Every node of a finalized document carries a document-local symbol id
// (xmltree.Node.Sym — label id on elements, value id on text nodes), so a
// label's category is looked up once per distinct label of the result, in a
// stamped table indexed by label id, and a feature is the integer triple
// (owner entity, attribute label id, value id), numbered through stamped
// tables indexed by symbol id: nothing is hashed per occurrence unless one
// value occurs under two feature types, or one attribute label under two
// entity labels, in the same result (Collector.dense). The fold keeps the
// chain of open entities by subtree end, and besides the feature statistics
// it records what the later stages would otherwise walk the result for: the
// instances of every entity label, which entity labels occur with no entity
// above them, and which (entity label, attribute-child label) pairs occur.
// All of it accumulates in a Collector's scratch, which holds positions and
// symbol ids only, and one fill turns it into a Stats — a few integer columns
// carved from one block and one arena of instance positions — whose
// string-keyed lookup tables are built only if a by-name accessor asks. The
// fill writes into a new, exact-size Stats the caller owns, or into the
// collector's own reusable Stats (CollectIn's scratch), which the snippets a
// server sends are derived from and which none of them keeps.
package features

import (
	"cmp"
	"fmt"
	"slices"
	"sort"
	"sync"

	"extract/internal/classify"
	"extract/internal/index"
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

// EntityAttr records that, somewhere in a result, an instance of the entity
// label has a child element whose label is classified as an attribute.
type EntityAttr struct {
	Entity, Attr string
	// First is the preorder position of the first entity instance with
	// such a child.
	First int
}

// Stats holds the feature statistics of one query result. Every observed
// feature, feature type and entity label has a dense id in first-seen
// (document) order; the ids index integer columns, and a feature's strings
// are read off its first instance. Instances are preorder positions in the
// result's space, and symbol ids the space's (Space): resolved to nodes
// (Node) only where a node is needed. Ids are meaningful only within these
// Stats. A Stats is immutable once returned and safe for concurrent readers.
type Stats struct {
	// Per feature id. ent indexes entLabels; attr and val are the symbol
	// ids of the attribute label and the value in the result's space;
	// the instances of feature f are inst[off[f]:off[f+1]], in document
	// order, so N(e,a,v) is the width of that run.
	ent, attr, val []int32
	ftype          []int32 // feature id -> type id
	off            []int32

	// Per type id: N(e,a), D(e,a) and the first feature of the type.
	typeN, typeD, typeFirst []int32

	// Per entity index: the label, its symbol id, and the run of inst
	// holding its instances (after the features' runs).
	entLabels []string
	entSyms   []int32
	entOff    []int32

	highest  []int32 // entity indexes seen with no entity above them
	entAttrs []EntityAttr

	inst []int32 // preorder positions

	// block is the one allocation the integer columns are carved from,
	// kept so a collector's scratch Stats is refilled in place.
	block []int32

	// The result is the interval [start, end] of space, its elements the
	// entries [lo, hi) of the space's columns, nodes[0] its node at start;
	// for a tree that has no index, space is nil. multi is set when space
	// has several parts, whose symbol ids are renumbered (Sym). cols are the
	// columns the fold read of a tree that has no index, on a collector's
	// scratch Stats only (Columns).
	space      *index.Whole
	multi      bool
	start, end int32
	lo, hi     int
	nodes      []*xmltree.Node
	cols       *index.Columns

	byName sync.Once
	featID map[Feature]int32
	typeID map[Type]int32

	dominantOnce sync.Once
	dominant     []Scored
}

// Collector gathers feature statistics. Its scratch — the tables indexed by
// symbol id, the occurrence logs, the columns of a result that has no index
// — is kept across calls, so a generator snippeting many results allocates
// only what each Stats owns; and a caller that keeps no Stats (a served
// snippet) folds into the collector's own reusable Stats instead
// (CollectIn with scratch), which allocates nothing once it has grown to the
// results it sees. A Collector is NOT safe for concurrent use; pool
// Collectors to share across goroutines (see core.Generator), and release
// the scratch Stats (ReleaseScratch) before pooling one.
type Collector struct {
	cls *classify.Classification

	// stamp marks what labels and values hold for the current result, so
	// neither table is cleared between results.
	stamp  uint32
	labels []labelSlot      // by label symbol id
	values []valueSlot      // by value symbol id
	over   map[uint64]int32 // see dense

	cols index.Columns // the columns of an index-less result
	open []openEntity
	occ  []occurrence // attribute occurrences, id = feature id
	eocc []occurrence // entity instances, id = entity index

	// Columns under construction; Stats gets exact-size copies.
	ent, attr, val, ftype, count []int32
	typeFirst                    []int32
	ents                         []entityScratch
	highest                      []int32
	pairs                        []pairScratch

	// stats is the scratch Stats CollectIn fills, nil until it first does.
	stats *Stats
}

// labelSlot is what the current result has shown of one label: its category,
// its entity index once an instance was seen, and — for an attribute label —
// the first entity it made a feature type with and the first it was seen as
// a direct child of (see dense).
type labelSlot struct {
	stamp             uint32
	cat               classify.Category
	ent               int32 // -1 until an instance is seen
	typeOwner, typeID int32
	pairOwner, pairID int32
}

// valueSlot is the first feature type the current result showed a value
// under, and that feature's id.
type valueSlot struct {
	stamp    uint32
	typ, fid int32
}

type openEntity struct {
	end int32 // the instance's End: it is open while elements start at or before it
	ent int32
}

type occurrence struct{ pos, id int32 }

type entityScratch struct {
	first   int32 // position of the first instance
	sym     int32
	count   int32
	highest bool
}

type pairScratch struct {
	ent   int32
	child int32 // position of an attribute child, for its label
	first int32
}

// NewCollector returns a Collector for results classified by cls.
func NewCollector(cls *classify.Classification) *Collector {
	return &Collector{cls: cls, over: make(map[uint64]int32)}
}

// Keys of the overflow map: two 31-bit fields under a two-bit tag, mapped to
// the id the pair was given. Symbol ids, entity indexes and type ids are
// non-negative int32s, so no field can overflow into its neighbour.
const (
	keyFeature uint64 = iota << 62 // type id, value symbol
	keyType                        // entity index, attribute label symbol
	keyPair                        // the same pair, as parent and child
)

func key(tag uint64, a, b int32) uint64 { return tag | uint64(a)<<31 | uint64(b) }

// dense numbers a pair (a, b) through b's slot in a table indexed by symbol
// id: *first and *id hold the first a the result showed with b and the id
// that pair got — a value occurs under one feature type, an attribute label
// under one entity label, in all but a few cases, so this is a compare and
// nothing is hashed. Any further a of the same b goes through the overflow
// map under k. fresh reports that the pair is new and was numbered next.
func (c *Collector) dense(first, id *int32, a int32, k uint64, next int) (got int32, fresh bool) {
	switch {
	case *first == a:
		return *id, false
	case *first < 0:
		*first, *id = a, int32(next)
		return *id, true
	}
	if got, ok := c.over[k]; ok {
		return got, false
	}
	c.over[k] = int32(next)
	return int32(next), true
}

// Collect gathers the feature statistics of the query-result tree rooted at
// root, a node of a finalized document (its subtree is the result), reading
// the tree itself: CollectIn for a tree that comes with nothing else.
func (c *Collector) Collect(root *xmltree.Node) *Stats {
	if root == nil {
		return &Stats{}
	}
	run := make([]*xmltree.Node, 0, root.End-root.Start+1)
	root.Walk(func(n *xmltree.Node) bool {
		run = append(run, n)
		return true
	})
	return c.CollectIn(nil, 0, 0, xmltree.AdoptFinalized(run), false)
}

// CollectResult is CollectIn for a result tree and the index it may be a
// view of: read in ix's space when it is a view of ix's document
// (index.Index.Interval), and as a tree of its own otherwise.
func (c *Collector) CollectResult(ix *index.Index, result *xmltree.Document) *Stats {
	w, start, end := ix.Interval(result)
	return c.CollectIn(w, start, end, result, false)
}

// CollectIn gathers the feature statistics of one query result: the interval
// [start, end] of the position space w (search.Result.Space), or, when w is
// nil, tree, which has no index. An occurrence is an attribute node (per the
// classification) holding a single text value whose nearest entity ancestor
// inside the result exists; the feature is (entity label, attribute label,
// value). The statistics of a whole space are folded once per space and
// classification (index.Whole.Derived) and shared.
//
// With scratch, the statistics of any other interval fold into the
// collector's own Stats, whose columns, instance arena, entity tables and
// dominant list are reused from one result to the next: what a caller that
// keeps no statistics (a served snippet, core.Generator.ServeResult) uses, so
// they cost nothing once the scratch has grown to the result. That Stats is
// valid until the collector's next Collect* call or ReleaseScratch; nothing
// may keep it, or any slice it hands out, past that. It also hands out the
// element columns it filled for a tree that has no index (Columns), so the
// selection that follows reads them instead of filling its own.
func (c *Collector) CollectIn(w *index.Whole, start, end int32, tree *xmltree.Document, scratch bool) *Stats {
	if c.stats == nil {
		c.stats = &Stats{}
	}
	dst := c.stats
	if !scratch {
		dst = &Stats{}
	}
	dst.recycle()
	if w == nil {
		root := tree.Root
		if root == nil || !root.IsElement() {
			return dst
		}
		c.cols.Fill(tree.Nodes())
		dst.nodes, dst.start, dst.end, dst.hi = tree.Nodes(), root.Start, root.End, c.cols.Len()
		if scratch {
			dst.cols = &c.cols
		}
		return c.fold(dst, &c.cols, 0, dst.hi)
	}
	fold := func(dst *Stats) *Stats {
		cols := w.Columns()
		dst.lo, dst.hi = cols.Run(start, end)
		dst.space, dst.start, dst.end, dst.nodes = w, start, end, w.Nodes()[start:end+1]
		dst.multi = len(w.Parts()) > 1
		return c.fold(dst, cols, dst.lo, dst.hi)
	}
	if start != 0 || int(end) != w.Len()-1 {
		return fold(dst)
	}
	return w.Derived(c.cls, func() any { return fold(&Stats{}) }).(*Stats)
}

// ReleaseScratch drops what the scratch Stats refers to — the result's nodes,
// its space, the labels and values it read — keeping only its buffers, so a
// pooled Collector keeps no corpus generation reachable.
func (c *Collector) ReleaseScratch() {
	if c.stats != nil {
		c.stats.recycle()
	}
}

// label returns the slot of a label symbol, classifying the label — read
// off the element at pos — the first time the result shows it.
func (c *Collector) label(s *Stats, sym, pos int32) *labelSlot {
	if int(sym) >= len(c.labels) {
		c.labels = append(c.labels, make([]labelSlot, int(sym)+1-len(c.labels))...)
	}
	slot := &c.labels[sym]
	if slot.stamp != c.stamp {
		*slot = labelSlot{stamp: c.stamp, cat: c.cls.OfLabel(s.Node(pos).Label), ent: -1, typeOwner: -1, pairOwner: -1}
	}
	return slot
}

// fold makes the pass over entries [lo, hi) of cols — one result's elements,
// entry lo its root — and fills s, which arrives knowing how to resolve a
// position.
func (c *Collector) fold(s *Stats, cols *index.Columns, lo, hi int) *Stats {
	c.stamp++
	if c.stamp == 0 { // wrapped: stale slots could read as current
		clear(c.labels)
		clear(c.values)
		c.stamp = 1
	}
	for i := lo; i < hi; i++ {
		sym, pos := cols.Label[i], cols.Pos[i]
		switch slot := c.label(s, sym, pos); slot.cat {
		case classify.Entity:
			c.closeEntities(pos)
			if slot.ent < 0 {
				slot.ent = int32(len(c.ents))
				c.ents = append(c.ents, entityScratch{first: pos, sym: sym})
			}
			e := &c.ents[slot.ent]
			e.count++
			if len(c.open) == 0 && !e.highest {
				e.highest = true
				c.highest = append(c.highest, slot.ent)
			}
			c.eocc = append(c.eocc, occurrence{pos: pos, id: slot.ent})
			c.open = append(c.open, openEntity{end: cols.End[i], ent: slot.ent})
		case classify.Attribute:
			if i > lo {
				// The parent was visited, so its slot is current.
				p := cols.Parent[i]
				if owner := &c.labels[cols.Label[p]]; owner.cat == classify.Entity {
					c.recordPair(slot, owner.ent, sym, pos, cols.Pos[p])
				}
			}
			if value := cols.Value[i]; value >= 0 {
				if c.closeEntities(pos); len(c.open) > 0 {
					c.recordFeature(slot, c.open[len(c.open)-1].ent, sym, value, pos)
				}
			}
		}
	}
	c.fill(s)
	if hi-lo >= scratchKeepNodes {
		*c = *NewCollector(c.cls) // the scratch Stats goes too
	} else {
		c.release()
	}
	return s
}

// What a Collector keeps between results is bounded. Its logs, columns and
// scratch Stats grow to the largest result it has seen — 8 bytes an
// attribute or entity occurrence, 20 an element of an index-less result —
// which is what makes a repeated large result cheap, but a pooled Collector
// must not pin memory in proportion to a corpus of any size: past
// scratchKeepNodes elements a result's scratch is garbage like its Stats.
const scratchKeepNodes = 1 << 20

// overKeep is the largest overflow map release empties rather than replaces:
// emptying costs by the size the map once had.
const overKeep = 1 << 10

// closeEntities drops the open entities whose subtree ended before pos.
func (c *Collector) closeEntities(pos int32) {
	for k := len(c.open); k > 0 && c.open[k-1].end < pos; k-- {
		c.open = c.open[:k-1]
	}
}

// recordFeature accumulates one occurrence, at pos, of the attribute label
// attr (slot is its label slot) with the given value under its owner.
func (c *Collector) recordFeature(slot *labelSlot, owner, attr, value, pos int32) {
	tid, fresh := c.dense(&slot.typeOwner, &slot.typeID, owner, key(keyType, owner, attr), len(c.typeFirst))
	if fresh {
		c.typeFirst = append(c.typeFirst, int32(len(c.ftype)))
	}
	if int(value) >= len(c.values) {
		c.values = append(c.values, make([]valueSlot, int(value)+1-len(c.values))...)
	}
	v := &c.values[value]
	if v.stamp != c.stamp {
		*v = valueSlot{stamp: c.stamp, typ: -1}
	}
	fid, fresh := c.dense(&v.typ, &v.fid, tid, key(keyFeature, tid, value), len(c.ftype))
	if fresh {
		c.ent = append(c.ent, owner)
		c.attr = append(c.attr, attr)
		c.val = append(c.val, value)
		c.ftype = append(c.ftype, tid)
		c.count = append(c.count, 0)
	}
	c.count[fid]++
	c.occ = append(c.occ, occurrence{pos: pos, id: fid})
}

// recordPair notes that the entity instance at parent has the element at pos
// — label attr, label slot slot — as an attribute child, keeping the
// earliest such instance.
func (c *Collector) recordPair(slot *labelSlot, ent, attr, pos, parent int32) {
	i, fresh := c.dense(&slot.pairOwner, &slot.pairID, ent, key(keyPair, ent, attr), len(c.pairs))
	if fresh {
		c.pairs = append(c.pairs, pairScratch{ent: ent, child: pos, first: parent})
	} else if p := &c.pairs[i]; parent < p.first {
		p.first = parent
	}
}

// fill copies the scratch into s: one block of integer columns, one instance
// arena carved into per-feature and per-entity runs, the entity labels and
// the entity/attribute pairs. Each goes into the buffer s already has when
// that is large enough — a collector's scratch Stats, refilled — and into a
// new one of exact size otherwise, which is every one of a new Stats.
func (c *Collector) fill(s *Stats) {
	nf, nt, ne := len(c.ftype), len(c.typeFirst), len(c.ents)
	ints := sized(s.block, 4*nf+(nf+1)+3*nt+ne+(ne+1)+len(c.highest))[:0]
	s.block = ints
	column := func(src []int32) []int32 {
		ints = append(ints, src...)
		return ints[len(ints)-len(src) : len(ints) : len(ints)]
	}
	zeros := func(n int) []int32 {
		ints = ints[:len(ints)+n]
		z := ints[len(ints)-n : len(ints) : len(ints)]
		clear(z)
		return z
	}
	s.ent, s.attr, s.val, s.ftype = column(c.ent), column(c.attr), column(c.val), column(c.ftype)
	s.typeFirst, s.highest = column(c.typeFirst), column(c.highest)
	s.off, s.entOff = zeros(nf+1), zeros(ne+1)
	s.typeN, s.typeD, s.entSyms = zeros(nt), zeros(nt), zeros(ne)

	s.inst = sized(s.inst, len(c.occ)+len(c.eocc))
	for f, n := range c.count {
		s.off[f+1] = s.off[f] + n
		s.typeN[c.ftype[f]] += n
		s.typeD[c.ftype[f]]++
		c.count[f] = s.off[f] // from here on: where the feature's next instance goes
	}
	for _, o := range c.occ {
		s.inst[c.count[o.id]] = o.pos
		c.count[o.id]++
	}
	if ne > 0 {
		s.entLabels = sized(s.entLabels, ne)
	}
	s.entOff[0] = int32(len(c.occ))
	for e := range c.ents {
		ent := &c.ents[e]
		s.entLabels[e], s.entSyms[e] = s.Node(ent.first).Label, ent.sym
		s.entOff[e+1] = s.entOff[e] + ent.count
		ent.count = s.entOff[e]
	}
	for _, o := range c.eocc {
		ent := &c.ents[o.id]
		s.inst[ent.count] = o.pos
		ent.count++
	}
	if len(c.pairs) > 0 {
		s.entAttrs = sized(s.entAttrs, len(c.pairs))
		for i, p := range c.pairs {
			s.entAttrs[i] = EntityAttr{Entity: s.entLabels[p.ent], Attr: s.Node(p.child).Label, First: int(p.first)}
		}
	}
}

// sized returns buf resliced to n elements when it has the room, else a new
// slice of exactly n. Reused elements keep what they held: the caller
// overwrites every one.
func sized[T any](buf []T, n int) []T {
	if cap(buf) < n {
		return make([]T, n)
	}
	return buf[:n]
}

// recycle readies a collector's scratch Stats for its next fill: every
// buffer emptied, its capacity kept, and no reference left to a document —
// the labels and values its tables held are cleared, the node run and the
// space dropped.
func (s *Stats) recycle() {
	clear(s.entLabels)
	clear(s.entAttrs)
	clear(s.dominant)
	*s = Stats{
		block:     s.block[:0],
		inst:      s.inst[:0],
		entLabels: s.entLabels[:0],
		entAttrs:  s.entAttrs[:0],
		dominant:  s.dominant[:0],
	}
}

// release empties the scratch for the next result. None of it holds a node
// or an index — positions and symbol ids only — so a pooled Collector keeps
// no corpus generation reachable.
func (c *Collector) release() {
	if len(c.over) > overKeep {
		c.over = make(map[uint64]int32)
	} else {
		clear(c.over)
	}
	c.open, c.occ, c.eocc = c.open[:0], c.occ[:0], c.eocc[:0]
	c.ent, c.attr, c.val, c.ftype, c.count = c.ent[:0], c.attr[:0], c.val[:0], c.ftype[:0], c.count[:0]
	c.typeFirst, c.ents, c.highest, c.pairs = c.typeFirst[:0], c.ents[:0], c.highest[:0], c.pairs[:0]
}

// Collect gathers the feature statistics of a query-result tree with a
// fresh Collector. Callers generating many snippets should hold a
// Collector (or core.Generator) instead.
func Collect(root *xmltree.Node, cls *classify.Classification) *Stats {
	return NewCollector(cls).Collect(root)
}

// Space returns the position space these statistics were folded in and the
// result's interval there; a nil space for a tree that has no index, whose
// positions are its nodes' own.
func (s *Stats) Space() (w *index.Whole, start, end int32) { return s.space, s.start, s.end }

// Run returns the entries [lo, hi) the result's elements are in the space's
// columns (index.Whole.Columns), or in the tree's.
func (s *Stats) Run() (lo, hi int) { return s.lo, s.hi }

// Node resolves a preorder position inside the result to its node.
func (s *Stats) Node(pos int32) *xmltree.Node { return s.nodes[pos-s.start] }

// Sym returns the symbol id of n, the node at a position inside the result,
// in the space's numbering: n's own Sym unless the space has several parts —
// answered inline, so only a whole document of several parts pays the
// space's lookup.
func (s *Stats) Sym(pos int32, n *xmltree.Node) int32 {
	if s.multi {
		return s.space.Sym(pos, n)
	}
	return n.Sym
}

// Columns returns the element columns of a result that has no index, as the
// fold read them, when these are a collector's scratch statistics
// (CollectIn with scratch), valid as long as they are; nil otherwise — an
// indexed result's columns are its space's parts' (index.Whole.Parts), and
// owned statistics keep none of the collector's scratch.
func (s *Stats) Columns() *index.Columns { return s.cols }

// Index returns the index of the first part of the space these statistics
// were folded in — for a view, the index of the document it is a view of —
// or nil when the result's tree was read instead.
func (s *Stats) Index() *index.Index {
	if s.space == nil {
		return nil
	}
	return s.space.Parts()[0]
}

// index builds the by-name lookup tables, on the first by-name access.
func (s *Stats) index() {
	s.byName.Do(func() {
		s.featID = make(map[Feature]int32, len(s.ftype))
		for id := range s.ftype {
			s.featID[s.Feature(int32(id))] = int32(id)
		}
		s.typeID = make(map[Type]int32, len(s.typeFirst))
		for tid, f := range s.typeFirst {
			s.typeID[s.Feature(f).Type] = int32(tid)
		}
	})
}

// FeatureID returns the dense id of f in these Stats, if the result has it.
func (s *Stats) FeatureID(f Feature) (int32, bool) {
	s.index()
	id, ok := s.featID[f]
	return id, ok
}

// Feature returns the feature with the given id.
func (s *Stats) Feature(id int32) Feature {
	// An instance holds a single text child, which follows it in preorder.
	pos := s.inst[s.off[id]]
	return Feature{
		Type:  Type{Entity: s.entLabels[s.ent[id]], Attr: s.Node(pos).Label},
		Value: s.Node(pos + 1).Value,
	}
}

// FeatureSyms returns what identifies feature id inside the result's space:
// the symbol ids of its entity label, attribute label and value.
func (s *Stats) FeatureSyms(id int32) (entity, attr, value int32) {
	return s.entSyms[s.ent[id]], s.attr[id], s.val[id]
}

// FeatureAt is FeatureOf for the nodes themselves, in statistics of a
// result of one document, where a node's position is its Start.
func (s *Stats) FeatureAt(owner, attr *xmltree.Node) (int32, bool) {
	return s.FeatureOf(owner.Start, attr.Start)
}

// FeatureOf returns the id of the feature that the node at position attr —
// an attribute node of the result holding a single text value — is an
// occurrence of under the entity instance at position owner. It compares
// integers only.
func (s *Stats) FeatureOf(owner, attr int32) (int32, bool) {
	e, n := int32(slices.Index(s.entSyms, s.Sym(owner, s.Node(owner)))), s.Node(attr)
	if e < 0 || !n.HasSingleTextChild() {
		return 0, false
	}
	// The single text value follows its attribute in preorder.
	value, label := s.Sym(attr+1, n.Children[0]), s.Sym(attr, n)
	for id, v := range s.val {
		if v == value && s.attr[id] == label && s.ent[id] == e {
			return int32(id), true
		}
	}
	return 0, false
}

// InstancesOf returns the positions of the attribute nodes carrying feature
// id, in document order. The slice is shared and must not be modified.
func (s *Stats) InstancesOf(id int32) []int32 {
	return s.inst[s.off[id]:s.off[id+1]:s.off[id+1]]
}

// N returns the occurrence count N(e,a,v) of f in the result.
func (s *Stats) N(f Feature) int {
	if id, ok := s.FeatureID(f); ok {
		return int(s.n(id))
	}
	return 0
}

func (s *Stats) n(id int32) int32 { return s.off[id+1] - s.off[id] }

// TypeN returns N(e,a): total value occurrences of the type.
func (s *Stats) TypeN(t Type) int {
	s.index()
	if id, ok := s.typeID[t]; ok {
		return int(s.typeN[id])
	}
	return 0
}

// TypeD returns D(e,a): the number of distinct values of the type.
func (s *Stats) TypeD(t Type) int {
	s.index()
	if id, ok := s.typeID[t]; ok {
		return int(s.typeD[id])
	}
	return 0
}

// Dominance returns DS(f). Features absent from the result score 0.
func (s *Stats) Dominance(f Feature) float64 {
	id, ok := s.FeatureID(f)
	if !ok {
		return 0
	}
	return s.dominanceID(id)
}

func (s *Stats) dominanceID(id int32) float64 {
	n := s.n(id)
	if n == 0 {
		return 0
	}
	tid := s.ftype[id]
	tn, td := s.typeN[tid], s.typeD[tid]
	if tn == 0 || td == 0 {
		return 0
	}
	return float64(n) / (float64(tn) / float64(td))
}

// IsDominant reports whether f is dominant: DS(f) > 1, or D(e,a) == 1 (a
// single-valued type is trivially dominant even though its score is 1).
func (s *Stats) IsDominant(f Feature) bool {
	id, ok := s.FeatureID(f)
	if !ok {
		return false
	}
	return s.isDominantID(id)
}

func (s *Stats) isDominantID(id int32) bool {
	if s.n(id) == 0 {
		return false
	}
	if s.typeD[s.ftype[id]] == 1 {
		return true
	}
	return s.dominanceID(id) > 1
}

// Instances returns the attribute nodes carrying f, in document order.
func (s *Stats) Instances(f Feature) []*xmltree.Node {
	id, ok := s.FeatureID(f)
	if !ok {
		return nil
	}
	out := make([]*xmltree.Node, 0, s.n(id))
	for _, pos := range s.InstancesOf(id) {
		out = append(out, s.Node(pos))
	}
	return out
}

// Features returns every observed feature in first-seen order.
func (s *Stats) Features() []Feature {
	out := make([]Feature, len(s.ftype))
	for id := range out {
		out[id] = s.Feature(int32(id))
	}
	return out
}

// Types returns every observed feature type, sorted.
func (s *Stats) Types() []Type {
	out := make([]Type, len(s.typeFirst))
	for tid, f := range s.typeFirst {
		out[tid] = s.Feature(f).Type
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Entity != out[j].Entity {
			return out[i].Entity < out[j].Entity
		}
		return out[i].Attr < out[j].Attr
	})
	return out
}

// EntityLabels returns the distinct entity labels present in the result, in
// first-seen (document) order; a label's position is its entity index. The
// slice is shared and must not be modified.
func (s *Stats) EntityLabels() []string { return s.entLabels }

// EntitySyms returns the symbol ids of EntityLabels, index for index: an
// element of the result is an entity instance exactly when its symbol id
// (Sym) is listed. The slice is shared and must not be modified.
func (s *Stats) EntitySyms() []int32 { return s.entSyms }

// EntityInstances returns the position of every instance of the entity
// label with the given index, in document order. The slice is shared and
// must not be modified.
func (s *Stats) EntityInstances(index int) []int32 {
	return s.inst[s.entOff[index]:s.entOff[index+1]:s.entOff[index+1]]
}

// FirstEntity returns the first entity instance with the given label in
// document order, or nil.
func (s *Stats) FirstEntity(label string) *xmltree.Node {
	if e := slices.Index(s.entLabels, label); e >= 0 {
		return s.Node(s.inst[s.entOff[e]])
	}
	return nil
}

// AppendHighestEntities appends the entity labels that occur in the result
// with no entity above them, in first-seen order, to dst.
func (s *Stats) AppendHighestEntities(dst []string) []string {
	if len(s.highest) == 0 {
		return dst
	}
	dst = slices.Grow(dst, len(s.highest))
	for _, e := range s.highest {
		dst = append(dst, s.entLabels[e])
	}
	return dst
}

// EntityAttrs returns the (entity label, attribute-child label) pairs that
// occur in the result. The slice is shared and must not be modified.
func (s *Stats) EntityAttrs() []EntityAttr { return s.entAttrs }

// Scored pairs a feature with its dominance score.
type Scored struct {
	Feature Feature
	Score   float64
	// ID is the feature's id in the Stats that scored it.
	ID int32
}

// Dominant returns all dominant features in decreasing dominance score;
// ties break by feature (entity, attr, value) for determinism. The list is
// sorted on the first call and shared after: it must not be modified.
func (s *Stats) Dominant() []Scored {
	s.dominantOnce.Do(func() { s.dominant = s.sortDominant() })
	return s.dominant
}

func (s *Stats) sortDominant() []Scored {
	count := 0
	for id := range s.ftype {
		if s.isDominantID(int32(id)) {
			count++
		}
	}
	if count == 0 {
		return s.dominant[:0]
	}
	out := sized(s.dominant, count)[:0]
	for id := range s.ftype {
		if id := int32(id); s.isDominantID(id) {
			out = append(out, Scored{Feature: s.Feature(id), Score: s.dominanceID(id), ID: id})
		}
	}
	slices.SortFunc(out, func(a, b Scored) int {
		if a.Score != b.Score {
			return cmp.Compare(b.Score, a.Score)
		}
		if c := cmp.Compare(a.Feature.Entity, b.Feature.Entity); c != 0 {
			return c
		}
		if c := cmp.Compare(a.Feature.Attr, b.Feature.Attr); c != 0 {
			return c
		}
		return cmp.Compare(a.Feature.Value, b.Feature.Value)
	})
	return out
}

// Report renders a per-type histogram like the right side of the paper's
// Figure 1 ("attribute: value: number of occurrences").
func (s *Stats) Report() string {
	var b []byte
	all := s.Features()
	for _, t := range s.Types() {
		b = append(b, fmt.Sprintf("%s:  N=%d D=%d\n", t, s.TypeN(t), s.TypeD(t))...)
		var fs []Feature
		for _, f := range all {
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
