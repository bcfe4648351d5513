package remote

import (
	"context"
	"encoding/binary"
	"math"
	"sort"
	"unsafe"

	"extract/internal/core"
	"extract/internal/ilist"
	"extract/internal/search"
	"extract/internal/selector"
	"extract/internal/shard"
	"extract/xmltree"
)

// Payload encodings. All integers are unsigned varints unless a fixed
// width is noted; strings are a uvarint length followed by the bytes.
// Every decoder validates counts against hard caps before allocating and
// returns *ProtocolError on malformed input — the frame checksum already
// rejected corruption, so a decode failure here means version skew or a
// buggy peer, and poisons the connection.

// maxTreeNodes bounds one decoded result tree; maxWireResults bounds one
// response's result count. Both exist to turn a hostile length field into
// a classified error instead of an allocation.
const (
	maxTreeNodes   = 4 << 20
	maxWireResults = 1 << 20
	maxWireShards  = 1 << 16
	maxWireStrings = 1 << 16
)

// cursor decodes one payload, accumulating the first failure.
type cursor struct {
	data []byte
	off  int
	err  error

	// slots is scanTree's scratch — the unfilled child slots of each open
	// ancestor — kept across the trees of one payload.
	slots []int
}

func (c *cursor) fail(format string, args ...any) {
	if c.err == nil {
		c.err = protocolErrf(format, args...)
	}
}

func (c *cursor) uvarint(what string) uint64 {
	if c.err != nil {
		return 0
	}
	v, n := binary.Uvarint(c.data[c.off:])
	if n <= 0 {
		c.fail("truncated varint (%s)", what)
		return 0
	}
	c.off += n
	return v
}

func (c *cursor) u8(what string) byte {
	if c.err != nil {
		return 0
	}
	if c.off >= len(c.data) {
		c.fail("truncated byte (%s)", what)
		return 0
	}
	b := c.data[c.off]
	c.off++
	return b
}

func (c *cursor) u64(what string) uint64 {
	if c.err != nil {
		return 0
	}
	if c.off+8 > len(c.data) {
		c.fail("truncated u64 (%s)", what)
		return 0
	}
	v := binary.LittleEndian.Uint64(c.data[c.off:])
	c.off += 8
	return v
}

// varint reads a zig-zag signed varint.
func (c *cursor) varint(what string) int64 {
	if c.err != nil {
		return 0
	}
	v, n := binary.Varint(c.data[c.off:])
	if n <= 0 {
		c.fail("truncated varint (%s)", what)
		return 0
	}
	c.off += n
	return v
}

func (c *cursor) bytes(n int, what string) []byte {
	if c.err != nil {
		return nil
	}
	if n < 0 || c.off+n > len(c.data) {
		c.fail("truncated bytes (%s, want %d)", what, n)
		return nil
	}
	b := c.data[c.off : c.off+n]
	c.off += n
	return b
}

// span reads one length-prefixed string in place, without copying it.
func (c *cursor) span(what string) []byte {
	n := c.uvarint(what)
	if n > uint64(len(c.data)) {
		c.fail("oversized string (%s, %d bytes)", what, n)
		return nil
	}
	return c.bytes(int(n), what)
}

func (c *cursor) str(what string) string { return string(c.span(what)) }

// count reads a uvarint and validates it against a cap.
func (c *cursor) count(what string, cap uint64) int {
	n := c.uvarint(what)
	if n > cap {
		c.fail("%s count %d exceeds cap %d", what, n, cap)
		return 0
	}
	return int(n)
}

func (c *cursor) done() error {
	if c.err != nil {
		return c.err
	}
	if c.off != len(c.data) {
		return protocolErrf("%d trailing payload bytes", len(c.data)-c.off)
	}
	return nil
}

func appendString(b []byte, s string) []byte {
	b = binary.AppendUvarint(b, uint64(len(s)))
	return append(b, s...)
}

// --- search options ---

func appendOptions(b []byte, o search.Options) []byte {
	b = append(b, byte(o.Semantics), byte(o.Mode))
	if o.DistinctAnchors {
		b = append(b, 1)
	} else {
		b = append(b, 0)
	}
	return binary.AppendUvarint(b, uint64(o.MaxResults))
}

func (c *cursor) options() search.Options {
	var o search.Options
	o.Semantics = search.Semantics(c.u8("semantics"))
	o.Mode = search.ConstructionMode(c.u8("mode"))
	o.DistinctAnchors = c.u8("distinct anchors") != 0
	o.MaxResults = int(c.uvarint("max results"))
	if o.Semantics > search.SemanticsELCA {
		c.fail("unknown semantics %d", o.Semantics)
	}
	return o
}

// --- response header ---

// Every response opens with one fixed header: the generation fingerprint the
// answer was computed on, then the server-side stage breakdown as three
// little-endian u64 nanosecond counts — decoding the request, evaluating
// (snippets included), encoding the response body. Stages that did not run
// are zero. The width is fixed so the encoder can fill the stages in after
// the body is encoded, and one place — the router's groupCall — reads it for
// every call kind.
const respHeaderLen = 8 + 3*8

type serverStages struct {
	decodeNs uint64
	evalNs   uint64
	encodeNs uint64
}

// appendRespHeader appends a response header with the stages zeroed;
// putServerStages fills them in once they are known.
func appendRespHeader(b []byte, fingerprint uint64) []byte {
	var zero [respHeaderLen - 8]byte
	return append(binary.LittleEndian.AppendUint64(b, fingerprint), zero[:]...)
}

// putServerStages writes the stage breakdown into a response's header.
func putServerStages(resp []byte, s serverStages) {
	binary.LittleEndian.PutUint64(resp[8:], s.decodeNs)
	binary.LittleEndian.PutUint64(resp[16:], s.evalNs)
	binary.LittleEndian.PutUint64(resp[24:], s.encodeNs)
}

// decodeRespHeader splits a response into its header fields and its body.
func decodeRespHeader(data []byte) (fingerprint uint64, s serverStages, body []byte, err error) {
	if len(data) < respHeaderLen {
		return 0, s, nil, protocolErrf("truncated response header (%d bytes)", len(data))
	}
	s.decodeNs = binary.LittleEndian.Uint64(data[8:])
	s.evalNs = binary.LittleEndian.Uint64(data[16:])
	s.encodeNs = binary.LittleEndian.Uint64(data[24:])
	return binary.LittleEndian.Uint64(data), s, data[respHeaderLen:], nil
}

// --- eval / full requests ---

// evalReq is an eval request, and with no shards a full request (the frame's
// type byte tells them apart): the full request evaluates the reconstructed
// whole document. Neither snippets anything: the router asks for the
// snippets of the results its merge keeps by handle (msgSnippets).
type evalReq struct {
	opts          search.Options
	query         string
	timeoutMillis uint64   // 0 = no deadline
	shards        []uint32 // eval request only; empty for a full request
}

// encodeEvalReq encodes options, query, timeout, then the shard count and
// the shard indexes.
func encodeEvalReq(r evalReq) []byte {
	b := appendOptions(nil, r.opts)
	b = appendString(b, r.query)
	b = binary.AppendUvarint(b, r.timeoutMillis)
	b = binary.AppendUvarint(b, uint64(len(r.shards)))
	for _, s := range r.shards {
		b = binary.AppendUvarint(b, uint64(s))
	}
	return b
}

func decodeEvalReq(data []byte) (evalReq, error) {
	c := &cursor{data: data}
	var r evalReq
	r.opts = c.options()
	r.query = c.str("query")
	r.timeoutMillis = c.uvarint("timeout")
	n := c.count("shard", maxWireShards)
	r.shards = make([]uint32, 0, n)
	for i := 0; i < n && c.err == nil; i++ {
		r.shards = append(r.shards, uint32(c.uvarint("shard index")))
	}
	return r, c.done()
}

// maxSnippetBound bounds the snippet bound a snippets request may carry.
const maxSnippetBound = 1 << 20

// --- digests ---

const (
	digestRootAnchored = 1 << iota
	digestNonRootLCAs
	digestHasFree
)

func appendDigest(b []byte, d shard.Digest) []byte {
	var flags byte
	if d.RootAnchored {
		flags |= digestRootAnchored
	}
	if d.HasNonRootLCAs {
		flags |= digestNonRootLCAs
	}
	if d.Free != nil {
		flags |= digestHasFree
	}
	b = append(b, flags)
	b = binary.AppendUvarint(b, uint64(len(d.Matched)))
	for _, m := range d.Matched {
		b = append(b, boolByte(m))
	}
	if d.Free != nil {
		for _, f := range d.Free {
			b = append(b, boolByte(f))
		}
	}
	return b
}

func (c *cursor) digest() (d shard.Digest) {
	flags := c.u8("digest flags")
	if flags&^(digestRootAnchored|digestNonRootLCAs|digestHasFree) != 0 {
		c.fail("unknown digest flags %#x", flags)
		return d
	}
	d.RootAnchored = flags&digestRootAnchored != 0
	d.HasNonRootLCAs = flags&digestNonRootLCAs != 0
	k := c.count("keyword", maxWireStrings)
	if k > len(c.data)-c.off {
		c.fail("truncated digest (%d keywords)", k)
		return d
	}
	d.Matched = make([]bool, k)
	for i := range d.Matched {
		d.Matched[i] = c.u8("matched bit") != 0
	}
	if flags&digestHasFree != 0 {
		d.Free = make([]bool, k)
		for i := range d.Free {
			d.Free[i] = c.u8("free bit") != 0
		}
	}
	return d
}

func boolByte(v bool) byte {
	if v {
		return 1
	}
	return 0
}

// --- trees ---

const (
	nodeKindText = 1 << iota
	nodeFromAttr
)

// appendNode appends one node record: flags, label or value, child count.
func appendNode(b []byte, n *xmltree.Node) []byte {
	var flags byte
	s := n.Label
	if n.IsText() {
		flags |= nodeKindText
		s = n.Value
	}
	if n.FromAttr {
		flags |= nodeFromAttr
	}
	b = append(b, flags)
	b = appendString(b, s)
	return binary.AppendUvarint(b, uint64(len(n.Children)))
}

// scanTree validates one tree's node records in place — a node count in
// (0, maxTreeNodes], then that many records in preorder — and returns the
// count. Everything buildNodes reads is checked: the tree's shape, every
// string length, and the child-count sum its arena is sized from. It is the
// decoder's innermost loop — every node of every shipped result passes
// through it — so it works on local copies of the cursor's state.
func (c *cursor) scanTree(what string) int {
	total := c.count("tree node", maxTreeNodes)
	if c.err != nil {
		return 0
	}
	if total == 0 {
		c.fail("empty %s tree", what)
		return 0
	}
	// Iterative preorder walk over the unfilled child slots of each ancestor
	// of the node at hand, so hostile nesting depth cannot overflow the
	// decoder's own stack. An ancestor stays on the stack until its whole
	// subtree has arrived.
	data, off := c.data, c.off
	slots := c.slots[:0]
	children := 0
	for i := 0; i < total; i++ {
		if off >= len(data) {
			c.fail("truncated node record in %s tree", what)
			return 0
		}
		flags := data[off]
		n, next := uvarintAt(data, off+1)
		if next < 0 || n > uint64(len(data)-next) {
			c.fail("truncated node text in %s tree", what)
			return 0
		}
		kids, next := uvarintAt(data, next+int(n))
		if next < 0 {
			c.fail("truncated child count in %s tree", what)
			return 0
		}
		off = next
		if kids > uint64(total) {
			c.fail("child count %d exceeds the %s tree's %d nodes", kids, what, total)
			return 0
		}
		if flags&nodeKindText != 0 && kids != 0 {
			c.fail("text node with %d children", kids)
			return 0
		}
		if len(slots) > 0 {
			slots[len(slots)-1]--
		} else if i > 0 {
			c.fail("multiple roots in %s tree", what)
			return 0
		}
		if kids > 0 {
			// buildNodes carves every Children slice out of one total-1 arena.
			if children += int(kids); children > total-1 {
				c.fail("child counts exceed the %s tree's %d nodes", what, total)
				return 0
			}
			slots = append(slots, int(kids))
		}
		for len(slots) > 0 && slots[len(slots)-1] == 0 {
			slots = slots[:len(slots)-1]
		}
	}
	c.off, c.slots = off, slots
	if len(slots) != 0 {
		c.fail("%s tree truncated: %d unfilled child slots", what, slots[len(slots)-1])
		return 0
	}
	return total
}

// uvarintAt reads the uvarint at data[off:], returning it and the offset
// past it, or a negative offset when it is truncated or overlong. One-byte
// values — nearly every length and count — take the fast path.
func uvarintAt(data []byte, off int) (uint64, int) {
	if off >= len(data) {
		return 0, -1
	}
	if b := data[off]; b < 0x80 {
		return uint64(b), off + 1
	}
	v, n := binary.Uvarint(data[off:])
	if n <= 0 {
		return 0, -1
	}
	return v, off + n
}

// slabChunk bounds one allocation of a built tree's node slab: 192 nodes ×
// 104 B = 19.5 KB stays inside the allocator's small size classes. One slab
// per result (≈ 38 KB at the benchmark's mean result size, a large-object
// span each) measurably raised peak RSS.
const slabChunk = 192

// validated walks an encoding a scan has accepted; it checks nothing.
type validated struct {
	text string
	off  int
}

func (v *validated) u8() byte {
	b := v.text[v.off]
	v.off++
	return b
}

func (v *validated) uvarint() int {
	var x uint64
	for shift := uint(0); ; shift += 7 {
		b := v.u8()
		x |= uint64(b&0x7f) << shift
		if b < 0x80 {
			return int(x)
		}
	}
}

func (v *validated) varint() int {
	u := uint64(v.uvarint())
	return int(int64(u>>1) ^ -int64(u&1))
}

func (v *validated) u64() uint64 {
	var x uint64
	for i := range 8 {
		x |= uint64(v.u8()) << (8 * i)
	}
	return x
}

func (v *validated) str() string {
	n := v.uvarint()
	v.off += n
	return v.text[v.off-n : v.off]
}

// buildNodes materializes the node records of one scanned tree at v, the way
// internal/persist loads a document: nodes arrive in preorder with their child
// counts, so a single pass fills a node slab, carves every Children slice out
// of one arena and links Parent as it goes. Allocations are a constant plus
// one per slab chunk, none per node; every label and value is a substring of
// v's text. With syms the nodes are a result tree's — symbol ids assigned as
// NewDocument would, Ord/Start/End set as preorder positions — ready for
// xmltree.AdoptFinalized; without, they are a snippet tree's, which carries
// neither, like the generator's own.
func (v *validated) buildNodes(syms *xmltree.Symbols) []*xmltree.Node {
	total := v.uvarint()
	ptrs := make([]*xmltree.Node, 2*total-1)
	nodes, childArena := ptrs[:total:total], ptrs[total:]
	var slab []xmltree.Node
	var open *xmltree.Node // innermost node with unfilled child slots
	for i := range nodes {
		if len(slab) == 0 {
			slab = make([]xmltree.Node, min(total-i, slabChunk))
		}
		n := &slab[0]
		slab = slab[1:]
		nodes[i] = n

		flags := v.u8()
		if flags&nodeKindText != 0 {
			n.Kind = xmltree.KindText
			n.Value = v.str()
		} else {
			n.Label = v.str()
		}
		n.FromAttr = flags&nodeFromAttr != 0
		if syms != nil {
			syms.Assign(n)
			n.Ord, n.Start, n.End = i, int32(i), int32(i)
		}
		if open != nil {
			n.Parent = open
			open.Children = append(open.Children, n)
		}
		if kids := v.uvarint(); kids > 0 {
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

// --- results ---

// matchKeywords returns r's match keywords in the order a tree record
// carries them: sorted.
func matchKeywords(r *search.Result) []string {
	kws := make([]string, 0, len(r.Matches))
	for kw := range r.Matches {
		kws = append(kws, kw)
	}
	sort.Strings(kws)
	return kws
}

// appendResult encodes one result's tree record losslessly: the result tree
// in preorder (labels, values, attribute origin, child counts), the LCA's
// position within it, and the match positions of each match keyword, in
// sorted order. Positions are preorder ordinals relative to the result root,
// so the decoder (scanResult, buildResult) rebuilds an identical finalized
// tree and re-resolves them. A view is encoded straight from the source
// document's nodes, nothing copied.
func appendResult(b []byte, r *search.Result) []byte {
	kws := matchKeywords(r)
	nodes := r.Doc.Nodes()
	b = binary.AppendUvarint(b, uint64(len(nodes)))
	for _, n := range nodes {
		b = appendNode(b, n)
	}

	// The LCA and the matches are source-document nodes. Inside a view
	// they are the result's own nodes, at their distance from the root in
	// the source preorder; a projection is a new tree, and a source node
	// is found (when it was kept) through the copies' Origin pointers.
	var originOrd map[*xmltree.Node]int
	if !r.IsView() {
		originOrd = make(map[*xmltree.Node]int, len(nodes))
		for _, n := range nodes {
			if n.Origin != nil {
				originOrd[n.Origin] = n.Ord
			}
		}
	}
	pos := func(n *xmltree.Node) (int, bool) {
		if originOrd == nil {
			return n.Ord - r.Root.Ord, true
		}
		ord, ok := originOrd[n]
		return ord, ok
	}
	lca := uint64(0)
	if ord, ok := pos(r.LCA); ok {
		lca = uint64(ord) + 1
	}
	b = binary.AppendUvarint(b, lca)

	b = binary.AppendUvarint(b, uint64(len(kws)))
	for _, kw := range kws {
		b = appendString(b, kw)
		ms := r.Matches[kw]
		// Every match of a view lies inside it; a projection kept only some.
		kept := len(ms)
		if originOrd != nil {
			kept = 0
			for _, m := range ms {
				if _, ok := originOrd[m]; ok {
					kept++
				}
			}
		}
		b = binary.AppendUvarint(b, uint64(kept))
		for _, m := range ms {
			if ord, ok := pos(m); ok {
				b = binary.AppendUvarint(b, uint64(ord))
			}
		}
	}
	return b
}

// treeRecord is one scanned tree record (appendResult's encoding):
// its validated range and its node count.
type treeRecord struct {
	enc   []byte
	nodes int // 1 ≤ nodes ≤ maxTreeNodes
}

// minTreeBytes is the shortest tree record (a childless root with an empty
// label, no LCA, no match keywords); it bounds a claimed tree count by the
// payload that would have to carry it.
const minTreeBytes = 6

// scanResult validates one tree record in place and returns its range.
// Everything buildResult reads is checked here — counts against their caps,
// the tree's shape, every ordinal and string length — so a malformed payload
// fails the exchange (and fails over) before anything is allocated for it.
func (c *cursor) scanResult() treeRecord {
	start := c.off
	total := c.scanTree("result")
	if c.err != nil {
		return treeRecord{}
	}
	if lca := c.uvarint("lca ordinal"); lca > uint64(total) {
		c.fail("lca ordinal %d out of range", lca-1)
	}
	nkw := c.count("match keyword", maxWireStrings)
	for i := 0; i < nkw && c.err == nil; i++ {
		c.span("match keyword")
		n := c.count("match ordinal", uint64(total))
		for j := 0; j < n && c.err == nil; j++ {
			if ord := c.uvarint("match ordinal"); ord >= uint64(total) {
				c.fail("match ordinal %d out of range", ord)
			}
		}
	}
	if c.err != nil {
		return treeRecord{}
	}
	return treeRecord{enc: c.data[start:c.off:c.off], nodes: total}
}

// build materializes the record over the payload it arrived in, uncopied.
func (t treeRecord) build() *search.Result { return buildResult(unsafeString(t.enc)) }

// buildResult materializes a scanned tree record as a finalized document of
// its own (buildNodes, then xmltree.AdoptFinalized). Every label, value and
// match keyword is a substring of enc — of a routed tree's response payload,
// which nothing may reuse once records alias it (readFrame). Anchor is the
// rebuilt root and Matches point into the rebuilt tree, preserving the
// relative depths the ranking scorer reads.
//
// The wire carries every string inline, so the symbol ids (Node.Sym) are
// interned here, as NewDocument would (a result has few distinct strings next
// to its nodes).
func buildResult(enc string) *search.Result {
	v := validated{text: enc}
	nodes := v.buildNodes(xmltree.NewSymbols())
	root := nodes[0]
	r := &search.Result{Root: root, Doc: xmltree.AdoptFinalized(nodes), Anchor: root, LCA: root}
	if lca := v.uvarint(); lca > 0 {
		r.LCA = nodes[lca-1]
	}
	nkw := v.uvarint()
	r.Matches = make(map[string][]*xmltree.Node, nkw)
	for ; nkw > 0; nkw-- {
		kw := v.str()
		ms := make([]*xmltree.Node, v.uvarint())
		for j := range ms {
			ms[j] = nodes[v.uvarint()]
		}
		r.Matches[kw] = ms
	}
	return r
}

// unsafeString views b as a string without copying: for a range the scan has
// validated, of a payload nothing writes to.
func unsafeString(b []byte) string { return unsafe.String(unsafe.SliceData(b), len(b)) }

// wholeShard is the shard of a handle into the whole document (the
// whole-document round's results).
const wholeShard = -1

// handle locates one shipped result where it was evaluated: its shard, or
// wholeShard, and its anchor's and LCA's preorder positions in that document.
// With the query, the options and the generation, it is all a server needs to
// rebuild the result (search.Engine.ResultAt).
type handle struct {
	shard, anchor, lca int32
}

// scanned is one shipped result of a decoded eval or full response:
// validated, not yet taken. Decoding is split in two because the merge keeps
// a fraction of what the shards ship (shard.MergeTake decides from the counts
// alone): the scan applies every check to every shipped result and allocates
// nothing, and only the results that win are taken (take) — which cannot
// fail.
//
// The ranges alias the payload they were scanned from, which outlives the
// exchange: the connection is back in its pool — possibly reading its next
// frame — before they are taken. So a payload is never a connection's read
// buffer but its own allocation, which nothing may reuse once records alias
// it (readFrame); the collector frees it with the query.
type scanned struct {
	at     handle
	nodes  int    // tree nodes, 1 ≤ nodes ≤ maxTreeNodes
	depths []byte // one uvarint per query term: its least match depth + 1, 0 = no match
}

// minResultBytes is the shortest shipped result (node count, anchor and LCA
// positions, no terms); it bounds a claimed result count by the payload that
// would have to carry it.
const minResultBytes = 3

// appendShipped encodes one result as an eval or full response ships it: its
// node count and its handle's positions (anchor, then LCA, in the document
// that answered), and the least depth below the anchor of each query term's
// matches, in the order of terms (the one number rank.Scorer reads;
// search.Result.MatchDepth, which a deferred result answers from). Neither its
// tree nor its snippet is shipped: both are asked for by handle (msgTrees,
// msgSnippets).
func appendShipped(b []byte, r *search.Result, terms []string) []byte {
	b = binary.AppendUvarint(b, uint64(r.Size()+1))
	b = binary.AppendUvarint(b, uint64(r.Anchor.Ord))
	b = binary.AppendUvarint(b, uint64(r.LCA.Ord))
	for _, kw := range terms {
		d, ok := r.MatchDepth(kw)
		if !ok {
			d = -1
		}
		b = binary.AppendUvarint(b, uint64(d+1))
	}
	return b
}

// shipped scans one result shipped by shard (wholeShard in a full response)
// for a query of terms terms: its node count, an anchor at or above its LCA,
// one match depth a term, every depth inside the tree.
func (c *cursor) shipped(shard int32, terms int) scanned {
	nodes := c.count("tree node", maxTreeNodes)
	anchor := c.uvarint("anchor position")
	lca := c.uvarint("lca position")
	if c.err == nil && nodes == 0 {
		c.fail("empty result tree")
	}
	if c.err == nil && (lca > math.MaxInt32 || anchor > lca) {
		c.fail("anchor position %d is not at or above lca position %d", anchor, lca)
	}
	start := c.off
	for i := 0; i < terms && c.err == nil; i++ {
		if d := c.uvarint("match depth"); d > uint64(nodes) {
			c.fail("match depth %d outside a %d-node tree", d-1, nodes)
		}
	}
	if c.err != nil {
		return scanned{}
	}
	return scanned{at: handle{shard: shard, anchor: int32(anchor), lca: int32(lca)}, nodes: nodes, depths: c.data[start:c.off:c.off]}
}

// take turns the winning range at position i of an answer into the deferred
// result the router answers with: its size, its match depths — keyed by the
// answer's own term keys, so nothing of the frame is kept — and its handle,
// recorded in the answer's trees, which fetch its tree the first time
// something reads it.
func (s scanned) take(at *answerTrees, i int) *search.Result {
	var depths []search.KeywordDepth
	dep := validated{text: unsafeString(s.depths)}
	for _, kw := range at.terms {
		if d := dep.uvarint(); d > 0 {
			depths = append(depths, search.KeywordDepth{Keyword: kw, Depth: d - 1})
		}
	}
	at.handles[i] = s.at
	retained := deferredOverhead + cap(depths)*int(unsafe.Sizeof(search.KeywordDepth{}))
	return search.Defer(s.nodes, retained, depths, func(ctx context.Context) (*search.Result, error) { return at.tree(ctx, i) })
}

// deferredOverhead is what a taken result holds besides its depths: the
// search.Result, its pending state, the build closure, its handle and its
// share of the answer's trees.
const deferredOverhead = 224

// appendResults encodes one shipped result list: an eval response's per
// shard, and the whole of a full response's body.
func appendResults(b []byte, rs []*search.Result, terms []string) []byte {
	b = binary.AppendUvarint(b, uint64(len(rs)))
	for _, r := range rs {
		b = appendShipped(b, r, terms)
	}
	return b
}

// results scans one result list: one slice per list, nothing per result.
func (c *cursor) results(shard int32, terms int) []scanned {
	n := c.count("result", maxWireResults)
	if n > (len(c.data)-c.off)/minResultBytes {
		c.fail("result count %d exceeds the payload that would carry it", n)
	}
	if c.err != nil {
		return nil
	}
	rs := make([]scanned, 0, n)
	for i := 0; i < n; i++ {
		r := c.shipped(shard, terms)
		if c.err != nil {
			return nil
		}
		rs = append(rs, r)
	}
	return rs
}

// --- snippets ---

// appendSnippet encodes one generated snippet as the router's serving layer
// replays it: the snippet tree in preorder (node records, as a result tree's),
// its edge count, the IList — every item's kind, text, feature (entity,
// attribute, value), feature id and exact score bits, then the return
// entities and the result key — and the covered and skipped item indexes.
// The feature statistics and the generation time are not sent; a served
// snippet drops them.
func appendSnippet(b []byte, g *core.Generated) []byte {
	b = binary.AppendUvarint(b, uint64(subtreeSize(g.Snippet.Root)))
	b = appendSubtree(b, g.Snippet.Root)
	b = binary.AppendUvarint(b, uint64(g.Snippet.Edges))
	il := g.IList
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
	b = appendIndexes(b, g.Snippet.Covered)
	return appendIndexes(b, g.Snippet.Skipped)
}

func subtreeSize(n *xmltree.Node) int {
	size := 1
	for _, c := range n.Children {
		size += subtreeSize(c)
	}
	return size
}

func appendSubtree(b []byte, n *xmltree.Node) []byte {
	b = appendNode(b, n)
	for _, c := range n.Children {
		b = appendSubtree(b, c)
	}
	return b
}

func appendIndexes(b []byte, idx []int) []byte {
	b = binary.AppendUvarint(b, uint64(len(idx)))
	for _, i := range idx {
		b = binary.AppendUvarint(b, uint64(i))
	}
	return b
}

// minItemBytes is the shortest encoded IList item: kind, four empty strings,
// a one-byte feature id and the eight score bytes.
const minItemBytes = 14

// scanSnippet validates one snippet record in place and returns its range:
// the tree's shape, an edge count the tree can hold, item kinds, and every
// covered and skipped index against the item count.
func (c *cursor) scanSnippet() []byte {
	start := c.off
	total := c.scanTree("snippet")
	if edges := c.uvarint("snippet edges"); c.err == nil && edges >= uint64(total) {
		c.fail("snippet of %d nodes claims %d edges", total, edges)
	}
	items := c.count("ilist item", maxWireStrings)
	if c.err == nil && items > (len(c.data)-c.off)/minItemBytes {
		c.fail("ilist item count %d exceeds the payload that would carry it", items)
	}
	for i := 0; i < items && c.err == nil; i++ {
		if kind := c.u8("ilist item kind"); kind > byte(ilist.DominantFeature) {
			c.fail("unknown ilist item kind %d", kind)
		}
		c.span("item text")
		c.span("feature entity")
		c.span("feature attribute")
		c.span("feature value")
		c.varint("feature id")
		c.u64("item score")
	}
	entities := c.count("return entity", maxWireStrings)
	for i := 0; i < entities && c.err == nil; i++ {
		c.span("return entity")
	}
	c.span("key attribute")
	c.span("key value")
	for _, what := range []string{"covered item", "skipped item"} {
		n := c.count(what, uint64(items))
		for i := 0; i < n && c.err == nil; i++ {
			if idx := c.uvarint(what); idx >= uint64(items) {
				c.fail("%s %d of %d items", what, idx, items)
			}
		}
	}
	if c.err != nil {
		return nil
	}
	return c.data[start:c.off:c.off]
}

// buildSnippet materializes a scanned snippet record over the payload it
// arrived in, which nothing may reuse once records alias it (readFrame):
// every string of the tree and the IList is a substring of rec. kws and
// bound are the request's, as the local generator records them.
func buildSnippet(rec []byte, kws []string, bound int) *core.Generated {
	v := validated{text: unsafeString(rec)}
	root := v.buildNodes(nil)[0]
	sn := &selector.Snippet{Root: root, Edges: v.uvarint()}
	il := &ilist.IList{Items: make([]ilist.Item, v.uvarint())}
	for i := range il.Items {
		it := &il.Items[i]
		it.Kind = ilist.Kind(v.u8())
		it.Text = v.str()
		it.Feature.Entity = v.str()
		it.Feature.Attr = v.str()
		it.Feature.Value = v.str()
		it.FeatureID = int32(v.varint())
		it.Score = math.Float64frombits(v.u64())
	}
	if n := v.uvarint(); n > 0 {
		il.ReturnEntities = make([]string, n)
		for i := range il.ReturnEntities {
			il.ReturnEntities[i] = v.str()
		}
	}
	il.KeyAttr = v.str()
	il.KeyValue = v.str()
	sn.Covered = v.indexes()
	sn.Skipped = v.indexes()
	return &core.Generated{Snippet: sn, IList: il, Keywords: kws, Bound: bound}
}

func (v *validated) indexes() []int {
	n := v.uvarint()
	if n == 0 {
		return nil
	}
	idx := make([]int, n)
	for i := range idx {
		idx[i] = v.uvarint()
	}
	return idx
}

// --- eval response ---

// shardAnswer is one shard's share of an evaluation on the shard server:
// its digest evidence and the local results it ships.
type shardAnswer struct {
	shard   uint32
	digest  shard.Digest
	results []*search.Result
}

// evalAnswer is what a shard server computed for one eval request, before
// encoding: terms are the query's term keys (search.TermKeys), which a shipped
// result's match depths follow.
type evalAnswer struct {
	terms  []string
	shards []shardAnswer
}

// appendEvalResp appends an eval response body — counts and handles, no
// snippets:
//
//	shard count | per shard: index, digest, [results]
func appendEvalResp(b []byte, a evalAnswer) []byte {
	b = binary.AppendUvarint(b, uint64(len(a.shards)))
	for _, s := range a.shards {
		b = binary.AppendUvarint(b, uint64(s.shard))
		b = appendDigest(b, s.digest)
		b = appendResults(b, s.results, a.terms)
	}
	return b
}

// shardResp is one shard's share of a decoded evaluation response: the
// router-side mirror of shardAnswer, its results scanned but not taken.
type shardResp struct {
	shard   uint32
	digest  shard.Digest
	results []scanned
}

type evalResp struct {
	shards []shardResp
}

// decodeEvalResp scans an eval response to a query of terms terms.
func decodeEvalResp(body []byte, terms int) (evalResp, error) {
	c := &cursor{data: body}
	var r evalResp
	n := c.count("shard response", maxWireShards)
	r.shards = make([]shardResp, 0, n)
	for i := 0; i < n; i++ {
		var s shardResp
		s.shard = uint32(c.uvarint("shard index"))
		s.digest = c.digest()
		if c.err == nil && s.shard >= maxWireShards {
			c.fail("shard index %d exceeds cap %d", s.shard, maxWireShards)
		}
		s.results = c.results(int32(s.shard), terms)
		if c.err != nil {
			return r, c.err
		}
		r.shards = append(r.shards, s)
	}
	return r, c.done()
}

// --- full response ---

// decodeFullResp scans a full response to a query of terms terms. Its body is
// one result list (appendResults), handles into the whole document.
func decodeFullResp(body []byte, terms int) ([]scanned, error) {
	c := &cursor{data: body}
	rs := c.results(wholeShard, terms)
	return rs, c.done()
}

// --- trees ---

// treesReq asks a server for the trees of some results of one answer (a
// trees request), or for their snippets (a snippets request; the frame's type
// byte tells them apart): the answer's query and options, the caller's
// remaining time (0 = none), the fingerprint of the generation that answered
// it, the snippet bound and the results' handles.
type treesReq struct {
	opts          search.Options
	query         string
	timeoutMillis uint64
	fingerprint   uint64
	bound         int // snippets request only; < 0 in a trees request
	handles       []handle
}

// encodeTreesReq encodes a trees or snippets request: options, query,
// timeout, then fingerprint (u64), then the bound + 1 (0 = none, a trees
// request), then per handle its shard + 1 (0 = the whole document) and its
// anchor and LCA positions.
func encodeTreesReq(r treesReq) []byte {
	b := appendOptions(nil, r.opts)
	b = appendString(b, r.query)
	b = binary.AppendUvarint(b, r.timeoutMillis)
	b = binary.LittleEndian.AppendUint64(b, r.fingerprint)
	b = binary.AppendUvarint(b, uint64(max(r.bound, -1)+1))
	b = binary.AppendUvarint(b, uint64(len(r.handles)))
	for _, h := range r.handles {
		b = binary.AppendUvarint(b, uint64(h.shard+1))
		b = binary.AppendUvarint(b, uint64(h.anchor))
		b = binary.AppendUvarint(b, uint64(h.lca))
	}
	return b
}

func decodeTreesReq(data []byte) (treesReq, error) {
	c := &cursor{data: data}
	var r treesReq
	r.opts = c.options()
	r.query = c.str("query")
	r.timeoutMillis = c.uvarint("timeout")
	r.fingerprint = c.u64("fingerprint")
	r.bound = c.count("snippet bound", maxSnippetBound+1) - 1
	n := c.count("handle", maxWireResults)
	if c.err == nil && n > (len(c.data)-c.off)/3 {
		c.fail("handle count %d exceeds the payload that would carry it", n)
	}
	if c.err != nil {
		return r, c.err
	}
	r.handles = make([]handle, 0, n)
	for i := 0; i < n && c.err == nil; i++ {
		sh := c.uvarint("handle shard")
		anchor, lca := c.uvarint("anchor position"), c.uvarint("lca position")
		if sh > maxWireShards || anchor > math.MaxInt32 || lca > math.MaxInt32 {
			c.fail("handle (shard %d, anchor %d, lca %d) out of range", int64(sh)-1, anchor, lca)
		}
		r.handles = append(r.handles, handle{shard: int32(sh) - 1, anchor: int32(anchor), lca: int32(lca)})
	}
	return r, c.done()
}

// appendTreesResp appends a trees response body: one tree record
// (appendResult) per requested handle, in request order.
func appendTreesResp(b []byte, rs []*search.Result) []byte {
	b = binary.AppendUvarint(b, uint64(len(rs)))
	for _, r := range rs {
		b = appendResult(b, r)
	}
	return b
}

// decodeTreesResp scans a trees response's tree records.
func decodeTreesResp(body []byte) ([]treeRecord, error) {
	c := &cursor{data: body}
	n := c.count("tree", maxWireResults)
	if c.err == nil && n > len(c.data)/minTreeBytes {
		c.fail("tree count %d exceeds the payload that would carry it", n)
	}
	if c.err != nil {
		return nil, c.err
	}
	trees := make([]treeRecord, 0, n)
	for i := 0; i < n && c.err == nil; i++ {
		trees = append(trees, c.scanResult())
	}
	return trees, c.done()
}

// --- snippets ---

// appendSnippetsResp appends a snippets response body: one snippet record
// (appendSnippet) per requested handle, in request order.
func appendSnippetsResp(b []byte, gs []*core.Generated) []byte {
	b = binary.AppendUvarint(b, uint64(len(gs)))
	for _, g := range gs {
		b = appendSnippet(b, g)
	}
	return b
}

// minSnippetBytes is the shortest snippet record (a one-node tree with an
// empty label, no edges, an empty IList, no key, nothing covered or
// skipped); it bounds a claimed snippet count by the payload that would have
// to carry it.
const minSnippetBytes = 11

// decodeSnippetsResp scans a snippets response's snippet records.
func decodeSnippetsResp(body []byte) ([][]byte, error) {
	c := &cursor{data: body}
	n := c.count("snippet", maxWireResults)
	if c.err == nil && n > len(c.data)/minSnippetBytes {
		c.fail("snippet count %d exceeds the payload that would carry it", n)
	}
	if c.err != nil {
		return nil, c.err
	}
	recs := make([][]byte, 0, n)
	for i := 0; i < n && c.err == nil; i++ {
		recs = append(recs, c.scanSnippet())
	}
	return recs, c.done()
}

// --- completion ---

type completeReq struct {
	prefix string
	k      int
}

func encodeCompleteReq(r completeReq) []byte {
	return binary.AppendUvarint(appendString(nil, r.prefix), uint64(r.k))
}

func decodeCompleteReq(data []byte) (completeReq, error) {
	c := &cursor{data: data}
	var r completeReq
	r.prefix = c.str("prefix")
	r.k = c.count("completion", maxWireResults)
	return r, c.done()
}

// appendCompleteResp appends a completion response body: the keywords, most
// frequent first.
func appendCompleteResp(b []byte, kws []string) []byte {
	b = binary.AppendUvarint(b, uint64(len(kws)))
	for _, kw := range kws {
		b = appendString(b, kw)
	}
	return b
}

func decodeCompleteResp(body []byte) ([]string, error) {
	c := &cursor{data: body}
	n := c.count("completion", maxWireResults)
	if c.err == nil && n > len(c.data) {
		c.fail("completion count %d exceeds the payload that would carry it", n)
	}
	var kws []string
	for i := 0; i < n && c.err == nil; i++ {
		kws = append(kws, c.str("completion"))
	}
	return kws, c.done()
}

// --- stats ---

type statsReq struct {
	keywords []string
}

func encodeStatsReq(r statsReq) []byte {
	b := binary.AppendUvarint(nil, uint64(len(r.keywords)))
	for _, k := range r.keywords {
		b = appendString(b, k)
	}
	return b
}

func decodeStatsReq(data []byte) (statsReq, error) {
	c := &cursor{data: data}
	var r statsReq
	n := c.count("keyword", maxWireStrings)
	for i := 0; i < n && c.err == nil; i++ {
		r.keywords = append(r.keywords, c.str("keyword"))
	}
	return r, c.done()
}

type statsResp struct {
	totalElements uint64
	counts        []uint64
}

func appendStatsResp(b []byte, r statsResp) []byte {
	b = binary.AppendUvarint(b, r.totalElements)
	b = binary.AppendUvarint(b, uint64(len(r.counts)))
	for _, v := range r.counts {
		b = binary.AppendUvarint(b, v)
	}
	return b
}

func decodeStatsResp(body []byte) (statsResp, error) {
	c := &cursor{data: body}
	var r statsResp
	r.totalElements = c.uvarint("total elements")
	n := c.count("count", maxWireStrings)
	for i := 0; i < n && c.err == nil; i++ {
		r.counts = append(r.counts, c.uvarint("count"))
	}
	return r, c.done()
}

// --- errors ---

// errKind classifies a server-side failure on the wire; the router maps it
// back to the sentinel the local path would have returned.
type errKind uint8

const (
	errKindEmptyQuery errKind = iota + 1
	errKindCanceled
	errKindDeadline
	errKindPanic
	errKindInternal
	errKindBadShard
	errKindSkew // a by-handle request for a generation the server no longer serves
)

type errMsg struct {
	kind errKind
	msg  string
}

func encodeErrMsg(e errMsg) []byte {
	b := []byte{byte(e.kind)}
	return appendString(b, e.msg)
}

func decodeErrMsg(data []byte) (errMsg, error) {
	c := &cursor{data: data}
	var e errMsg
	e.kind = errKind(c.u8("error kind"))
	e.msg = c.str("error message")
	if e.kind < errKindEmptyQuery || e.kind > errKindSkew {
		c.fail("unknown error kind %d", e.kind)
	}
	return e, c.done()
}
