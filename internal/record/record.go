// Package record is the one byte layout of XR's tree and snippet records:
// what a shard server sends a router, and what a served snippet is kept as
// on every backend. A result tree and a snippet tree travel as the same node
// records; a snippet record adds its edge count, IList and covered and
// skipped items. The package writes records (AppendNode, AppendSnippet) and
// reads records a scan has already validated (Reader, Snippet, Shown): it
// checks nothing itself. Validation belongs to the wire decoder
// (internal/remote), which refuses a malformed record before anything here
// reads it.
package record

import (
	"encoding/binary"
	"math"
	"sync"

	"extract/internal/ilist"
	"extract/internal/selector"
	"extract/xmltree"
)

// Node record flags.
const (
	FlagText = 1 << iota
	FlagFromAttr
)

// SlabChunk bounds one allocation of a built tree's node slab: 192 nodes ×
// 104 B = 19.5 KB stays inside the allocator's small size classes. One slab
// per result (≈ 38 KB at the benchmark's mean result size, a large-object
// span each) measurably raised peak RSS.
const SlabChunk = 192

// appendString appends s as a uvarint length and its bytes.
func appendString(b []byte, s string) []byte {
	b = binary.AppendUvarint(b, uint64(len(s)))
	return append(b, s...)
}

// AppendNode appends one node record — flags, label or value, child count —
// for n with kids children.
func AppendNode(b []byte, n *xmltree.Node, kids int) []byte {
	var flags byte
	s := n.Label
	if n.IsText() {
		flags |= FlagText
		s = n.Value
	}
	if n.FromAttr {
		flags |= FlagFromAttr
	}
	b = append(b, flags)
	b = appendString(b, s)
	return binary.AppendUvarint(b, uint64(kids))
}

// Reader walks an encoding a scan has accepted; it checks nothing. Every
// string it returns is a substring of Text.
type Reader struct {
	Text string
	Off  int
}

// U8 reads one byte.
func (v *Reader) U8() byte {
	b := v.Text[v.Off]
	v.Off++
	return b
}

// Uvarint reads an unsigned varint.
func (v *Reader) Uvarint() int {
	var x uint64
	for shift := uint(0); ; shift += 7 {
		b := v.U8()
		x |= uint64(b&0x7f) << shift
		if b < 0x80 {
			return int(x)
		}
	}
}

// Varint reads a zig-zag signed varint.
func (v *Reader) Varint() int {
	u := uint64(v.Uvarint())
	return int(int64(u>>1) ^ -int64(u&1))
}

// U64 reads eight little-endian bytes.
func (v *Reader) U64() uint64 {
	var x uint64
	for i := range 8 {
		x |= uint64(v.U8()) << (8 * i)
	}
	return x
}

// Str reads a length-prefixed string, in place.
func (v *Reader) Str() string {
	n := v.Uvarint()
	v.Off += n
	return v.Text[v.Off-n : v.Off]
}

// BuildNodes materializes the node records of one tree at v, the way
// internal/persist loads a document: nodes arrive in preorder with their child
// counts, so a single pass fills a node slab, carves every Children slice out
// of one arena and links Parent as it goes. Allocations are a constant plus
// one per slab chunk, none per node — none at all when the nodes go into a
// scratch tree (into), whose storage the next tree reuses; every label and
// value is a substring of v's text. With syms the nodes are a result tree's —
// symbol ids assigned as NewDocument would, Ord/Start/End set as preorder
// positions — ready for xmltree.AdoptFinalized; without, they are a snippet
// tree's, which carries neither.
func (v *Reader) BuildNodes(syms *xmltree.Symbols, into *Tree) []*xmltree.Node {
	total := v.Uvarint()
	var ptrs []*xmltree.Node
	var slab []xmltree.Node
	if into != nil {
		ptrs, slab = into.reset(total)
	} else {
		ptrs = make([]*xmltree.Node, 2*total-1)
	}
	nodes, childArena := ptrs[:total:total], ptrs[total:]
	var open *xmltree.Node // innermost node with unfilled child slots
	for i := range nodes {
		if len(slab) == 0 {
			slab = make([]xmltree.Node, min(total-i, SlabChunk))
		}
		n := &slab[0]
		slab = slab[1:]
		nodes[i] = n

		flags := v.U8()
		if flags&FlagText != 0 {
			n.Kind = xmltree.KindText
			n.Value = v.Str()
		} else {
			n.Label = v.Str()
		}
		n.FromAttr = flags&FlagFromAttr != 0
		if syms != nil {
			syms.Assign(n)
			n.Ord, n.Start, n.End = i, int32(i), int32(i)
		}
		if open != nil {
			n.Parent = open
			open.Children = append(open.Children, n)
		}
		if kids := v.Uvarint(); kids > 0 {
			n.Children = childArena[:0:kids]
			childArena = childArena[kids:]
			open = n
			continue
		}
		// A leaf closes every ancestor whose last slot it (transitively)
		// filled.
		for open != nil && len(open.Children) == cap(open.Children) {
			if syms != nil {
				open.End = int32(i)
			}
			open = open.Parent
		}
	}
	return nodes
}

// Tree is storage BuildNodes reuses from one tree to the next: what a served
// snippet's XML is rendered from, the tree dropped once it is rendered. It is
// pooled (GetTree) and emptied before it goes back, so a pooled one pins no
// record.
type Tree struct {
	ptrs  []*xmltree.Node
	nodes []xmltree.Node
}

var trees = sync.Pool{New: func() any { return new(Tree) }}

// GetTree borrows a scratch tree; Release returns it.
func GetTree() *Tree { return trees.Get().(*Tree) }

// reset returns storage for a tree of total nodes: BuildNodes' pointer arena
// and a zeroed node slab.
func (t *Tree) reset(total int) ([]*xmltree.Node, []xmltree.Node) {
	if cap(t.nodes) < total {
		t.nodes = make([]xmltree.Node, total)
		t.ptrs = make([]*xmltree.Node, 2*total-1)
	}
	t.nodes = t.nodes[:total]
	clear(t.nodes)
	return t.ptrs[:2*total-1], t.nodes
}

// Release empties t and puts it back in the pool.
func (t *Tree) Release() {
	clear(t.nodes)
	trees.Put(t)
}

// --- snippets ---

// Nodes is a snippet tree as its record lists it: Len nodes in preorder,
// each with its number of children.
type Nodes interface {
	Len() int
	Node(i int) (n *xmltree.Node, kids int)
}

// AppendSnippet appends one snippet record: the snippet tree in preorder
// (node records, as a result tree's), its edge count, the IList — every
// item's kind, text, feature (entity, attribute, value), feature id and exact
// score bits, then the return entities and the result key — and the covered
// and skipped item indexes. Feature statistics are not recorded.
func AppendSnippet(b []byte, tree Nodes, edges int, il *ilist.IList, covered, skipped []int) []byte {
	b = binary.AppendUvarint(b, uint64(tree.Len()))
	for i := range tree.Len() {
		n, kids := tree.Node(i)
		b = AppendNode(b, n, kids)
	}
	b = binary.AppendUvarint(b, uint64(edges))
	b = binary.AppendUvarint(b, uint64(len(il.Items)))
	for _, it := range il.Items {
		b = append(b, byte(it.Kind))
		b = appendString(b, it.Text)
		b = appendString(b, it.Feature.Entity)
		b = appendString(b, it.Feature.Attr)
		b = appendString(b, it.Feature.Value)
		b = binary.AppendVarint(b, int64(it.FeatureID))
		b = binary.LittleEndian.AppendUint64(b, math.Float64bits(it.Score))
	}
	b = binary.AppendUvarint(b, uint64(len(il.ReturnEntities)))
	for _, e := range il.ReturnEntities {
		b = appendString(b, e)
	}
	b = appendString(b, il.KeyAttr)
	b = appendString(b, il.KeyValue)
	b = appendIndexes(b, covered)
	return appendIndexes(b, skipped)
}

func appendIndexes(b []byte, idx []int) []byte {
	b = binary.AppendUvarint(b, uint64(len(idx)))
	for _, i := range idx {
		b = binary.AppendUvarint(b, uint64(i))
	}
	return b
}

// Shown reads what a result page shows of a snippet record: its XML,
// rendered from a scratch tree built into into (nil: a pooled one) and
// dropped, its edge count and its result key. Nothing else is built.
func Shown(enc string, into *Tree) (xml string, edges int, key string) {
	if into == nil {
		into = GetTree()
		defer into.Release()
	}
	v := Reader{Text: enc}
	xml = xmltree.XMLString(v.BuildNodes(nil, into)[0])
	edges = v.Uvarint()
	var it ilist.Item
	for range v.Uvarint() {
		v.item(&it)
	}
	for range v.Uvarint() {
		v.Str() // a return entity
	}
	v.Str() // the key attribute
	return xml, edges, v.Str()
}

// Snippet decodes a snippet record's tree, with its covered and skipped item
// indexes, and its IList: every string is a substring of enc.
func Snippet(enc string) (*selector.Snippet, *ilist.IList) {
	v := Reader{Text: enc}
	root := v.BuildNodes(nil, nil)[0]
	sn := &selector.Snippet{Root: root, Edges: v.Uvarint()}
	il := &ilist.IList{Items: make([]ilist.Item, v.Uvarint())}
	for i := range il.Items {
		v.item(&il.Items[i])
	}
	if n := v.Uvarint(); n > 0 {
		il.ReturnEntities = make([]string, n)
		for i := range il.ReturnEntities {
			il.ReturnEntities[i] = v.Str()
		}
	}
	il.KeyAttr = v.Str()
	il.KeyValue = v.Str()
	sn.Covered = v.indexes()
	sn.Skipped = v.indexes()
	return sn, il
}

// item reads one IList item record into it.
func (v *Reader) item(it *ilist.Item) {
	it.Kind = ilist.Kind(v.U8())
	it.Text = v.Str()
	it.Feature.Entity = v.Str()
	it.Feature.Attr = v.Str()
	it.Feature.Value = v.Str()
	it.FeatureID = int32(v.Varint())
	it.Score = math.Float64frombits(v.U64())
}

func (v *Reader) indexes() []int {
	n := v.Uvarint()
	if n == 0 {
		return nil
	}
	idx := make([]int, n)
	for i := range idx {
		idx[i] = v.Uvarint()
	}
	return idx
}
