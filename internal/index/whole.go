package index

import (
	"sort"
	"sync"

	"extract/xmltree"
)

// Whole is the whole document of a corpus cut into shards — the root's
// children in contiguous blocks, each block under a copy of the root in a
// document of its own (internal/shard) — read through the shards' documents
// and indexes, nothing copied. A node of it is addressed by its global
// position, its preorder position in the whole document: shard i's node at
// local position p > 0 is at p plus the node counts of the shards before it,
// less their roots (Global), and every shard root stands for the document
// root, at 0. Labels and values get global symbol ids the same way
// (Sym), so a reader that compares symbols across one result compares them
// across shards. A Whole is safe for concurrent use.
type Whole struct {
	parts []*Index
	// off[i] is shard i's offset; shard i holds the positions
	// (off[i], off[i+1]], and off[len(parts)] is Len()-1.
	off []int32

	symsOnce sync.Once
	syms     [][2][]int32 // per shard, label then value: local symbol id -> global

	derivedMu              sync.Mutex
	derivedKey, derivedVal any
}

// NewWhole returns the whole document of the shards whose indexes are parts,
// in document order. Every part's document must have a root.
func NewWhole(parts []*Index) *Whole {
	w := &Whole{parts: parts, off: make([]int32, len(parts)+1)}
	for i, ix := range parts {
		w.off[i+1] = w.off[i] + int32(ix.doc.Len()-1)
	}
	return w
}

// Parts returns the shards' indexes, in document order. The slice must not be
// modified.
func (w *Whole) Parts() []*Index { return w.parts }

// Len returns the whole document's node count.
func (w *Whole) Len() int { return int(w.off[len(w.parts)]) + 1 }

// Global returns the global position of shard i's node at local position p.
func (w *Whole) Global(i int, p int32) int32 {
	if p == 0 {
		return 0
	}
	return w.off[i] + p
}

// Locate returns the shard and the local position of the node at global
// position pos; the root is shard 0's, at 0.
func (w *Whole) Locate(pos int32) (part int, local int32) {
	if pos <= 0 {
		return 0, 0
	}
	i := sort.Search(len(w.parts), func(i int) bool { return w.off[i+1] >= pos })
	return i, pos - w.off[i]
}

// Node returns the node at global position pos: shard 0's root for the root.
func (w *Whole) Node(pos int32) *xmltree.Node {
	i, p := w.Locate(pos)
	return w.node(i, p)
}

func (w *Whole) node(i int, p int32) *xmltree.Node { return w.parts[i].doc.Nodes()[p] }

// End returns the largest global position in the subtree of the node at pos.
func (w *Whole) End(pos int32) int32 {
	if pos == 0 {
		return w.off[len(w.parts)]
	}
	n := w.Node(pos)
	return pos + n.End - n.Start
}

// Parent returns the global position of the parent of the node at pos > 0.
func (w *Whole) Parent(pos int32) int32 {
	i, p := w.Locate(pos)
	return w.Global(i, int32(w.node(i, p).Parent.Ord))
}

// Part returns the shard n is a node of. A shard root is its own shard's,
// and stands for the document root as every other does.
func (w *Whole) Part(n *xmltree.Node) int {
	for i, ix := range w.parts {
		if ix.doc.ByOrd(n.Ord) == n {
			return i
		}
	}
	return -1
}

// Pos returns the global position of n, a node of one of the shards.
func (w *Whole) Pos(n *xmltree.Node) int32 { return w.Global(w.Part(n), int32(n.Ord)) }

// Sym returns the global symbol id of the node at global position pos: its
// label's among labels, or its value's among values for a text node.
func (w *Whole) Sym(pos int32) int32 {
	i, p := w.Locate(pos)
	return w.SymOf(i, w.node(i, p))
}

// SymOf returns the global symbol id of n, a node of shard i (Part).
func (w *Whole) SymOf(i int, n *xmltree.Node) int32 {
	w.symsOnce.Do(w.numberSyms)
	space := 0
	if n.Kind == xmltree.KindText {
		space = 1
	}
	return w.syms[i][space][n.Sym]
}

// numberSyms maps every shard's symbol ids to global ones, numbered in
// first-seen order across the shards: one pass over every node, once.
func (w *Whole) numberSyms() {
	ids := [2]map[string]int32{make(map[string]int32), make(map[string]int32)}
	w.syms = make([][2][]int32, len(w.parts))
	for i, ix := range w.parts {
		tables := &w.syms[i]
		for _, n := range ix.doc.Nodes() {
			space, s := 0, n.Label
			if n.Kind == xmltree.KindText {
				space, s = 1, n.Value
			}
			t := tables[space]
			for int(n.Sym) >= len(t) {
				t = append(t, -1)
			}
			if t[n.Sym] < 0 {
				id, ok := ids[space][s]
				if !ok {
					id = int32(len(ids[space]))
					ids[space][s] = id
				}
				t[n.Sym] = id
			}
			tables[space] = t
		}
	}
}

// Columns returns the whole document's elements as columns — global
// positions, global symbol ids, parent entries of the whole — built on each
// call from the shards' own columns: the root once, then every shard's other
// entries in order.
func (w *Whole) Columns() *Columns {
	w.symsOnce.Do(w.numberSyms)
	n := 1
	for _, ix := range w.parts {
		n += ix.Columns().Len() - 1
	}
	out := &Columns{}
	out.reset(n)
	root := w.parts[0].Columns()
	out.Pos[0], out.End[0], out.Parent[0], out.Value[0] = 0, w.off[len(w.parts)], -1, -1
	out.Label[0] = w.syms[0][0][root.Label[0]]
	k := int32(1)
	for i, ix := range w.parts {
		c, off, base := ix.Columns(), w.off[i], k-1
		labels, values := w.syms[i][0], w.syms[i][1]
		for e := 1; e < c.Len(); e++ {
			out.Pos[k], out.End[k], out.Label[k] = c.Pos[e]+off, c.End[e]+off, labels[c.Label[e]]
			out.Parent[k], out.Value[k] = 0, -1
			if p := c.Parent[e]; p > 0 {
				out.Parent[k] = base + p
			}
			if v := c.Value[e]; v >= 0 {
				out.Value[k] = values[v]
			}
			k++
		}
	}
	return out
}

// Derived is Index.Derived for what is computed once over the whole document
// — its statistics under one classification (features.Collector.Whole).
func (w *Whole) Derived(key any, build func() any) any {
	w.derivedMu.Lock()
	defer w.derivedMu.Unlock()
	if w.derivedKey != key || w.derivedVal == nil {
		w.derivedKey, w.derivedVal = key, build()
	}
	return w.derivedVal
}
