// Package record is the one byte layout of XR's tree and snippet records:
// what a shard server sends a router, and what a router's served snippet is
// kept as. A result tree and a snippet tree travel as the same node
// records; a snippet record leads with what a result page shows — the XML
// the server rendered, the edge count and the result key — and then carries
// the snippet tree, IList and covered and skipped items. The package writes
// records (AppendNode, AppendSnippet) and reads records a scan has already
// validated (Reader, Snippet): it checks nothing itself. Validation belongs
// to the wire decoder (internal/remote), which refuses a malformed record
// before anything here reads it.
package record

import (
	"encoding/binary"
	"math"

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
// counts, so a single pass fills a node slab and links it (xmltree.Linker),
// every Children slice carved out of one arena. Allocations are a constant
// plus one per slab chunk, none per node; every label and value is a
// substring of v's text, and every node carries its preorder position. With
// syms the nodes are a result tree's, symbol ids assigned as NewDocument
// would — ready for xmltree.AdoptFinalized; without, a snippet tree's, which
// carries no symbol ids.
func (v *Reader) BuildNodes(syms *xmltree.Symbols) []*xmltree.Node {
	total := v.Uvarint()
	ptrs := make([]*xmltree.Node, 2*total-1)
	var slab []xmltree.Node
	nodes, link := ptrs[:total:total], xmltree.NewLinker(ptrs[total:])
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
		}
		// The scan has checked the tree's shape: linking cannot fail.
		_ = link.Link(n, v.Uvarint())
	}
	return nodes
}

// --- snippets ---

// Nodes is a snippet tree as its record lists it: Len nodes in preorder,
// each with its number of children.
type Nodes interface {
	Len() int
	Node(i int) (n *xmltree.Node, kids int)
}

// AppendSnippet appends one snippet record: its head — the snippet's XML
// (xml, the snippet tree as the one serializer renders it), its edge count
// and its result key (the IList's KeyValue) — then the snippet tree in
// preorder (node records, as a result tree's), the IList — every item's
// kind, text, feature (entity, attribute, value), feature id and exact score
// bits, then the return entities and the key attribute — and the covered and
// skipped item indexes. Feature statistics are not recorded.
func AppendSnippet(b, xml []byte, tree Nodes, edges int, il *ilist.IList, covered, skipped []int) []byte {
	b = binary.AppendUvarint(b, uint64(len(xml)))
	b = append(b, xml...)
	b = binary.AppendUvarint(b, uint64(edges))
	b = appendString(b, il.KeyValue)
	b = binary.AppendUvarint(b, uint64(tree.Len()))
	for i := range tree.Len() {
		n, kids := tree.Node(i)
		b = AppendNode(b, n, kids)
	}
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

// Head reads the head of the snippet record at v — what a result page shows:
// its XML, its edge count and its result key — in place, allocating nothing.
func (v *Reader) Head() (xml string, edges int, key string) {
	xml = v.Str()
	edges = v.Uvarint()
	return xml, edges, v.Str()
}

// Snippet decodes a snippet record's tree, with its covered and skipped item
// indexes, and its IList: every string is a substring of enc.
func Snippet(enc string) (*selector.Snippet, *ilist.IList) {
	v := Reader{Text: enc}
	_, edges, key := v.Head()
	root := v.BuildNodes(nil)[0]
	sn := &selector.Snippet{Root: root, Edges: edges}
	il := &ilist.IList{Items: make([]ilist.Item, v.Uvarint()), KeyValue: key}
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
