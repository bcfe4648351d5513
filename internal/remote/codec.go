package remote

import (
	"encoding/binary"
	"math"
	"unsafe"

	"extract/internal/bin"
	"extract/internal/ilist"
	"extract/internal/index"
	"extract/internal/record"
	"extract/internal/search"
	"extract/internal/shard"
	"extract/xmltree"
)

// Payload encodings. All integers are unsigned varints unless a fixed
// width is noted; strings are a uvarint length followed by the bytes.
// Every decoder reads through a cursor over bin.Reader, whose one count rule
// refuses a count past its cap, or claiming more elements than the bytes left
// could carry, before anything is allocated for it; the shortest encoding of
// one element (each) is stated at every count's call, derived from the
// encoder. Malformed input is a *ProtocolError — the frame checksum already
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

// cursor decodes one payload through the one bounds-checked reader
// (bin.Reader): the first failure sticks as a *ProtocolError.
type cursor struct {
	bin.Reader

	// slots is scanTree's scratch — the unfilled child slots of each open
	// ancestor — kept across the trees of one payload.
	slots []int
}

func newCursor(data []byte) *cursor {
	return &cursor{Reader: bin.NewReader(data, 0, func(msg string) error { return &ProtocolError{Reason: msg} })}
}

// count reads a uvarint count of elements at least each bytes long (0: the
// bytes do not carry them) and validates it (bin.Reader.Count).
func (c *cursor) count(what string, max uint64, each int) int {
	return c.Count(c.Uvarint(what), what, max, each)
}

func (c *cursor) str(what string) string { return string(c.Span(what)) }

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
	o.Semantics = search.Semantics(c.U8("semantics"))
	o.Mode = search.ConstructionMode(c.U8("mode"))
	o.DistinctAnchors = c.U8("distinct anchors") != 0
	o.MaxResults = int(c.Uvarint("max results"))
	if o.Semantics > search.SemanticsELCA {
		c.Fail("unknown semantics %d", o.Semantics)
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
// whole document. With a snippet bound, the server snippets the results the
// merge is sure to keep while it holds them — an eval request's leading run
// of shards (shard.LeadingRun), a full request's whole answer — and the
// router asks for the other winners' snippets by handle (msgSnippets).
type evalReq struct {
	opts          search.Options
	query         string
	timeoutMillis uint64   // 0 = no deadline
	shards        []uint32 // eval request only; empty for a full request
	bound         int      // the snippet bound; < 0 = search only
}

// encodeEvalReq encodes options, query, timeout, then the shard count and
// the shard indexes, then the bound + 1 (0 = search only).
func encodeEvalReq(r evalReq) []byte {
	b := appendOptions(nil, r.opts)
	b = appendString(b, r.query)
	b = binary.AppendUvarint(b, r.timeoutMillis)
	b = binary.AppendUvarint(b, uint64(len(r.shards)))
	for _, s := range r.shards {
		b = binary.AppendUvarint(b, uint64(s))
	}
	return binary.AppendUvarint(b, uint64(max(r.bound, -1)+1))
}

func decodeEvalReq(data []byte) (evalReq, error) {
	c := newCursor(data)
	var r evalReq
	r.opts = c.options()
	r.query = c.str("query")
	r.timeoutMillis = c.Uvarint("timeout")
	n := c.count("shard", maxWireShards, 1) // a uvarint shard index each
	r.shards = make([]uint32, 0, n)
	for i := 0; i < n && c.Err() == nil; i++ {
		r.shards = append(r.shards, uint32(c.Uvarint("shard index")))
	}
	r.bound = c.count("snippet bound", maxSnippetBound+1, 0) - 1
	return r, c.Done()
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
	flags := c.U8("digest flags")
	if flags&^(digestRootAnchored|digestNonRootLCAs|digestHasFree) != 0 {
		c.Fail("unknown digest flags %#x", flags)
		return d
	}
	d.RootAnchored = flags&digestRootAnchored != 0
	d.HasNonRootLCAs = flags&digestNonRootLCAs != 0
	k := c.count("keyword", maxWireStrings, 1) // a matched bit each
	if c.Err() != nil {
		return d
	}
	d.Matched = make([]bool, k)
	for i := range d.Matched {
		d.Matched[i] = c.U8("matched bit") != 0
	}
	if flags&digestHasFree != 0 {
		d.Free = make([]bool, k)
		for i := range d.Free {
			d.Free[i] = c.U8("free bit") != 0
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

// scanTree validates one tree's node records in place — a node count in
// (0, maxTreeNodes], then that many records in preorder — and returns the
// count. Everything record.Reader.BuildNodes reads is checked: the tree's
// shape, every string length, and the child-count sum its arena is sized
// from. It is the decoder's innermost loop — every node of every shipped result passes
// through it — so it works on local copies of the cursor's state.
func (c *cursor) scanTree(what string) int {
	total := c.count("tree node", maxTreeNodes, 3) // flags, a text length, a child count
	if c.Err() != nil {
		return 0
	}
	if total == 0 {
		c.Fail("empty %s tree", what)
		return 0
	}
	// Iterative preorder walk over the unfilled child slots of each ancestor
	// of the node at hand, so hostile nesting depth cannot overflow the
	// decoder's own stack. An ancestor stays on the stack until its whole
	// subtree has arrived.
	data, off := c.Data, c.Off
	slots := c.slots[:0]
	children := 0
	for i := 0; i < total; i++ {
		if off >= len(data) {
			c.Fail("truncated node record in %s tree", what)
			return 0
		}
		flags := data[off]
		n, next := uvarintAt(data, off+1)
		if next < 0 || n > uint64(len(data)-next) {
			c.Fail("truncated node text in %s tree", what)
			return 0
		}
		kids, next := uvarintAt(data, next+int(n))
		if next < 0 {
			c.Fail("truncated child count in %s tree", what)
			return 0
		}
		off = next
		if kids > uint64(total) {
			c.Fail("child count %d exceeds the %s tree's %d nodes", kids, what, total)
			return 0
		}
		if flags&record.FlagText != 0 && kids != 0 {
			c.Fail("text node with %d children", kids)
			return 0
		}
		if len(slots) > 0 {
			slots[len(slots)-1]--
		} else if i > 0 {
			c.Fail("multiple roots in %s tree", what)
			return 0
		}
		if kids > 0 {
			// BuildNodes carves every Children slice out of one total-1 arena.
			if children += int(kids); children > total-1 {
				c.Fail("child counts exceed the %s tree's %d nodes", what, total)
				return 0
			}
			slots = append(slots, int(kids))
		}
		for len(slots) > 0 && slots[len(slots)-1] == 0 {
			slots = slots[:len(slots)-1]
		}
	}
	c.Off, c.slots = off, slots
	if len(slots) != 0 {
		c.Fail("%s tree truncated: %d unfilled child slots", what, slots[len(slots)-1])
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

// --- results ---

// appendResult encodes one result's tree record losslessly: the result tree
// in preorder (labels, values, attribute origin, child counts), the LCA's
// position within it, and the match positions of each match keyword, in
// sorted order (search.Result.MatchKeywords). Positions are preorder
// ordinals relative to the result root, so the decoder (scanResult,
// buildResult) rebuilds an identical finalized tree and re-resolves them. A
// view is encoded straight from the source document's nodes, nothing copied.
func appendResult(b []byte, r *search.Result) []byte {
	if w, lca := r.Whole(); w != nil {
		return appendWhole(b, r, w, lca)
	}
	kws := r.MatchKeywords()
	nodes := r.Doc.Nodes()
	b = binary.AppendUvarint(b, uint64(len(nodes)))
	for _, n := range nodes {
		b = record.AppendNode(b, n, len(n.Children))
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
		ms := r.Matches(kw)
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

// appendWhole is appendResult for a whole-document result of a sharded
// corpus: the whole document's tree record, encoded from the shards — the
// root once, with every shard root's children for its own, then each shard's
// other nodes in order — with its LCA and matches at their global positions,
// which are positions relative to the root.
func appendWhole(b []byte, r *search.Result, w *index.Whole, lca int32) []byte {
	b = binary.AppendUvarint(b, uint64(w.Len()))
	kids := 0
	for _, ix := range w.Parts() {
		kids += len(ix.Document().Root.Children)
	}
	root := w.Node(0)
	b = record.AppendNode(b, root, kids)
	for _, ix := range w.Parts() {
		for _, n := range ix.Document().Nodes()[1:] {
			b = record.AppendNode(b, n, len(n.Children))
		}
	}
	b = binary.AppendUvarint(b, uint64(lca)+1)
	kws := r.MatchKeywords()
	b = binary.AppendUvarint(b, uint64(len(kws)))
	for _, kw := range kws {
		b = appendString(b, kw)
		ms := r.WholeMatches(kw)
		b = binary.AppendUvarint(b, uint64(len(ms)))
		for _, m := range ms {
			b = binary.AppendUvarint(b, uint64(m))
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
	start := c.Off
	total := c.scanTree("result")
	if c.Err() != nil {
		return treeRecord{}
	}
	if lca := c.Uvarint("lca ordinal"); lca > uint64(total) {
		c.Fail("lca ordinal %d out of range", lca-1)
	}
	nkw := c.count("match keyword", maxWireStrings, 2) // a keyword length, an ordinal count
	for i := 0; i < nkw && c.Err() == nil; i++ {
		c.Span("match keyword")
		n := c.count("match ordinal", uint64(total), 1)
		for j := 0; j < n && c.Err() == nil; j++ {
			if ord := c.Uvarint("match ordinal"); ord >= uint64(total) {
				c.Fail("match ordinal %d out of range", ord)
			}
		}
	}
	if c.Err() != nil {
		return treeRecord{}
	}
	return treeRecord{enc: c.Data[start:c.Off:c.Off], nodes: total}
}

// build materializes the record over the payload it arrived in, uncopied.
func (t treeRecord) build() *search.Result { return buildResult(unsafeString(t.enc)) }

// buildResult materializes a scanned tree record as a finalized document of
// its own (record.Reader.BuildNodes, then xmltree.AdoptFinalized). Every label, value and
// match keyword is a substring of enc — of a routed tree's response payload,
// which nothing may reuse once records alias it (readFrame). Anchor is the
// rebuilt root and the matches are lists of the rebuilt tree's nodes
// (search.Result.OwnMatches), preserving the relative depths the ranking
// scorer reads.
//
// The wire carries every string inline, so the symbol ids (Node.Sym) are
// interned here, as NewDocument would (a result has few distinct strings next
// to its nodes).
func buildResult(enc string) *search.Result {
	v := record.Reader{Text: enc}
	nodes := v.BuildNodes(xmltree.NewSymbols())
	root := nodes[0]
	r := &search.Result{Root: root, Doc: xmltree.AdoptFinalized(nodes), Anchor: root, LCA: root}
	if lca := v.Uvarint(); lca > 0 {
		r.LCA = nodes[lca-1]
	}
	kws := make([]string, v.Uvarint())
	lists := make([]*index.PostingList, len(kws))
	for i := range kws {
		kws[i] = v.Str()
		ms := make([]*xmltree.Node, v.Uvarint())
		for j := range ms {
			ms[j] = nodes[v.Uvarint()]
		}
		lists[i] = index.PackNodes(ms)
	}
	r.OwnMatches(kws, lists)
	return r
}

// unsafeString views b as a string without copying: for a range the scan has
// validated, of a payload nothing writes to.
func unsafeString(b []byte) string { return unsafe.String(unsafe.SliceData(b), len(b)) }

// wholeShard is the shard of a whole handle: one into the whole document,
// which names the result of the whole-document round anchored at the root.
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
// nothing, and only the results that win are taken (answerTrees.take) — which
// cannot fail. It is copied for every shipped result (results) and again for
// every winner (shard.MergeResults), so it is kept to 48 bytes.
//
// The ranges alias the payload they were scanned from, which outlives the
// exchange: the connection is back in its pool — possibly reading its next
// frame — before they are taken. So a payload is never a connection's read
// buffer but its own allocation, which nothing may reuse once records alias
// it (readFrame); the collector frees it with the query.
type scanned struct {
	at     handle
	nodes  int32  // tree nodes, 1 ≤ nodes ≤ maxTreeNodes
	depths string // one uvarint per query term: its least match depth + 1, 0 = no match
	rec    string // its snippet record (scanSnippet), when its response carried one; "" when not
}

// lcaPos is s's LCA position in the shard that shipped it, the merge's cut
// key (shard.AppendEarliest).
func (s scanned) lcaPos() int32 { return s.at.lca }

// minResultBytes is the shortest shipped result (node count, anchor and LCA
// positions, no terms); it bounds a claimed result count by the payload that
// would have to carry it.
const minResultBytes = 3

// appendShipped encodes one result as an eval or full response ships it: its
// node count and its handle's positions (anchor, then LCA), and the least
// depth below the anchor of each query term's matches + 1 (0: none), in the
// order of terms (the one number rank.Scorer reads; search.Result.MatchDepth,
// which a deferred result answers from) — ship, as appendShip or appendShipOf
// made it, is the node count and then the depths. Its tree is not shipped but
// asked for by handle (msgTrees); its snippet, when the response carries it,
// follows the result list (appendRecords).
func appendShipped(b []byte, anchor, lca int32, ship []int32) []byte {
	b = binary.AppendUvarint(b, uint64(ship[0]))
	b = binary.AppendUvarint(b, uint64(anchor))
	b = binary.AppendUvarint(b, uint64(lca))
	for _, d := range ship[1:] {
		b = binary.AppendUvarint(b, uint64(d))
	}
	return b
}

// appendShip appends to ship what appendShipped encodes of a result besides
// its handle: its node count nodes and its match depths (depths, -1 for a
// term with no match), as shard.Round.Shipped tells them of a hit.
func appendShip(ship []int32, nodes int, depths []int) []int32 {
	ship = append(ship, int32(nodes))
	for _, d := range depths {
		ship = append(ship, int32(d+1))
	}
	return ship
}

// appendShipOf is appendShip for a built result r of a query of term keys
// terms: its size and MatchDepth.
func appendShipOf(ship []int32, r *search.Result, terms []string) []int32 {
	ship = append(ship, int32(r.Size()+1))
	for _, kw := range terms {
		d, ok := r.MatchDepth(kw)
		if !ok {
			d = -1
		}
		ship = append(ship, int32(d+1))
	}
	return ship
}

// shipped scans one result shipped by shard (wholeShard: a whole handle) for
// a query of terms terms: its node count, an anchor at or above its LCA, one
// match depth a term, every depth inside the tree.
func (c *cursor) shipped(shard int32, terms int) scanned {
	nodes := c.count("tree node", maxTreeNodes, 0) // the tree is not shipped
	anchor := c.Uvarint("anchor position")
	lca := c.Uvarint("lca position")
	if c.Err() == nil && nodes == 0 {
		c.Fail("empty result tree")
	}
	if c.Err() == nil && (lca > math.MaxInt32 || anchor > lca) {
		c.Fail("anchor position %d is not at or above lca position %d", anchor, lca)
	}
	start := c.Off
	for i := 0; i < terms && c.Err() == nil; i++ {
		if d := c.Uvarint("match depth"); d > uint64(nodes) {
			c.Fail("match depth %d outside a %d-node tree", d-1, nodes)
		}
	}
	if c.Err() != nil {
		return scanned{}
	}
	return scanned{at: handle{shard: shard, anchor: int32(anchor), lca: int32(lca)}, nodes: int32(nodes), depths: unsafeString(c.Data[start:c.Off])}
}

// appendResults encodes one shard's shipped result list, an eval response's
// per shard, for a query of terms terms: each hit at its own positions in the
// shard, with what the server computed of it (shardAnswer.shipped).
func appendResults(b []byte, s shardAnswer, terms int) []byte {
	b = binary.AppendUvarint(b, uint64(len(s.hits)))
	stride := 1 + terms
	for j, h := range s.hits {
		b = appendShipped(b, h.Anchor, h.LCA, s.shipped[j*stride:(j+1)*stride])
	}
	return b
}

// results scans one shard's result list: one slice, nothing per result.
func (c *cursor) results(shard int32, terms int) []scanned {
	n := c.count("result", maxWireResults, minResultBytes)
	if c.Err() != nil {
		return nil
	}
	rs := make([]scanned, 0, n)
	for i := 0; i < n; i++ {
		r := c.shipped(shard, terms)
		if c.Err() != nil {
			return nil
		}
		rs = append(rs, r)
	}
	return rs
}

// --- snippet records ---

// appendRecords appends one record list: the count, then each snippet record
// (core.Generator.AppendRecord) copied from the buffer it was written into
// (shard.Records). It is a snippets response's body, and it follows every
// result list of an eval or full response, one record a result or none.
func appendRecords(b []byte, recs *shard.RecordSet) []byte {
	b = binary.AppendUvarint(b, uint64(recs.Len()))
	for i := range recs.Len() {
		b = append(b, recs.At(i)...)
	}
	return b
}

// minSnippetBytes is the shortest snippet record (no XML, no edges, no key,
// a one-node tree with an empty label, an empty IList, nothing covered or
// skipped); it bounds a claimed snippet count by the payload that would have
// to carry it.
const minSnippetBytes = 12

// recordCount reads the count of a record list.
func (c *cursor) recordCount() int { return c.count("snippet record", maxWireResults, minSnippetBytes) }

// recordsOf scans the records that follow the result list rs, one a result,
// into their results (scanned.rec).
func (c *cursor) recordsOf(rs []scanned) {
	for i := range rs {
		if c.Err() != nil {
			return
		}
		rs[i].rec = unsafeString(c.scanSnippet())
	}
}

// minItemBytes is the shortest encoded IList item: kind, four empty strings,
// a one-byte feature id and the eight score bytes.
const minItemBytes = 14

// scanSnippet validates one snippet record in place and returns its range:
// the head's XML and key lengths, the tree's shape, an edge count the tree
// can hold, item kinds, and every covered and skipped index against the item
// count.
func (c *cursor) scanSnippet() []byte {
	start := c.Off
	c.Span("snippet xml")
	edges := c.Uvarint("snippet edges")
	c.Span("result key")
	total := c.scanTree("snippet")
	if c.Err() == nil && edges >= uint64(total) {
		c.Fail("snippet of %d nodes claims %d edges", total, edges)
	}
	items := c.count("ilist item", maxWireStrings, minItemBytes)
	for i := 0; i < items && c.Err() == nil; i++ {
		if kind := c.U8("ilist item kind"); kind > byte(ilist.DominantFeature) {
			c.Fail("unknown ilist item kind %d", kind)
		}
		c.Span("item text")
		c.Span("feature entity")
		c.Span("feature attribute")
		c.Span("feature value")
		c.Varint("feature id")
		c.U64("item score")
	}
	entities := c.count("return entity", maxWireStrings, 1) // a length each
	for i := 0; i < entities && c.Err() == nil; i++ {
		c.Span("return entity")
	}
	c.Span("key attribute")
	for _, what := range []string{"covered item", "skipped item"} {
		n := c.count(what, uint64(items), 1) // a uvarint index each
		for i := 0; i < n && c.Err() == nil; i++ {
			if idx := c.Uvarint(what); idx >= uint64(items) {
				c.Fail("%s %d of %d items", what, idx, items)
			}
		}
	}
	if c.Err() != nil {
		return nil
	}
	return c.Data[start:c.Off:c.Off]
}

// --- eval response ---

// shardAnswer is one shard's share of an evaluation on the shard server:
// its digest evidence, the hits it ships and what it ships of each, and, for
// a shard of the request's leading run when the request has a snippet bound
// and no shard of the request is root-anchored, their snippet records (none
// otherwise).
type shardAnswer struct {
	shard   uint32
	digest  shard.Digest
	hits    []search.Hit
	shipped []int32 // per hit, what appendShipped encodes besides its handle: 1 + len(terms) values
	records *shard.RecordSet
}

// evalAnswer is what a shard server computed for one eval request, before
// encoding: terms are the query's term keys (search.Query.Keys), which a
// shipped result's match depths follow, round the evaluation that found the
// hits (which builds any of them), and records the snippet records of every
// shard of the leading run, each shard's a Slice of them.
type evalAnswer struct {
	terms   []string
	round   *shard.Round
	shards  []shardAnswer
	records *shard.RecordSet
}

// appendEvalResp appends an eval response body — counts and handles, and the
// leading run's snippet records:
//
//	shard count | per shard: index, digest, [results], [records]
func appendEvalResp(b []byte, a evalAnswer) []byte {
	b = binary.AppendUvarint(b, uint64(len(a.shards)))
	for _, s := range a.shards {
		b = binary.AppendUvarint(b, uint64(s.shard))
		b = appendDigest(b, s.digest)
		b = appendResults(b, s, len(a.terms))
		b = appendRecords(b, s.records)
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

// minShardRespBytes is the shortest shard response (shard index, digest
// flags, no keywords, no results, no records).
const minShardRespBytes = 5

// decodeEvalResp scans an eval response to a query of terms terms whose
// request's leading run was lead shards (shard.LeadingRun), or to a
// search-only request (lead < 0). Records are where the rule puts them or the
// response is refused: one a shipped result for a shard of the leading run
// when no shard of the response is root-anchored — the query then takes round
// two, whose answer replaces round one's — and none anywhere else.
func decodeEvalResp(body []byte, terms, lead int) (evalResp, error) {
	c := newCursor(body)
	var r evalResp
	n := c.count("shard response", maxWireShards, minShardRespBytes)
	r.shards = make([]shardResp, 0, n)
	records, leading, rooted := 0, 0, false
	for i := 0; i < n; i++ {
		var s shardResp
		s.shard = uint32(c.Uvarint("shard index"))
		s.digest = c.digest()
		if c.Err() == nil && s.shard >= maxWireShards {
			c.Fail("shard index %d exceeds cap %d", s.shard, maxWireShards)
		}
		s.results = c.results(int32(s.shard), terms)
		recs := c.recordCount()
		switch {
		case c.Err() != nil:
		case lead < 0 && recs > 0:
			c.Fail("%d snippet records in a search-only answer", recs)
		case int(s.shard) >= lead && recs > 0:
			c.Fail("%d snippet records for shard %d, outside the leading run of %d shards", recs, s.shard, lead)
		case recs > 0 && recs != len(s.results):
			c.Fail("%d snippet records for shard %d's %d results", recs, s.shard, len(s.results))
		}
		c.recordsOf(s.results[:min(recs, len(s.results))])
		if c.Err() != nil {
			return r, c.Err()
		}
		records += recs
		if int(s.shard) < lead {
			leading += len(s.results)
		}
		rooted = rooted || s.digest.RootAnchored
		r.shards = append(r.shards, s)
	}
	if rooted {
		leading = 0
	}
	if records != leading {
		c.Fail("%d snippet records for %d results of the leading run (root-anchored: %v)", records, leading, rooted)
	}
	return r, c.Done()
}

// --- full response ---

// fullAnswer is what a shard server computed for one full request: the
// query's term keys (as evalAnswer's), the whole-document answer's results
// and their handles (handleOf), and, when the request has a snippet bound,
// one snippet record a result.
type fullAnswer struct {
	terms   []string
	results []*search.Result
	handles []handle
	records *shard.RecordSet
}

// appendFullResp appends a full response body: one result list — each
// result its handle's shard + 1 (0: the whole document), then the result as
// an eval response ships it, at its handle's positions — and its records.
func appendFullResp(b []byte, a fullAnswer) []byte {
	b = binary.AppendUvarint(b, uint64(len(a.results)))
	var ship []int32
	for i, r := range a.results {
		h := a.handles[i]
		b = binary.AppendUvarint(b, uint64(h.shard+1))
		ship = appendShipOf(ship[:0], r, a.terms)
		b = appendShipped(b, h.anchor, h.lca, ship)
	}
	return appendRecords(b, a.records)
}

// decodeFullResp scans a full response to a query of terms terms over
// shards shards: one result list, each result under a shard of the placement
// or, anchored at the root, a whole handle, and one record a result when the
// request had a snippet bound (snippeted), none when it had not.
func decodeFullResp(body []byte, terms, shards int, snippeted bool) ([]scanned, error) {
	c := newCursor(body)
	n := c.count("result", maxWireResults, minResultBytes+1) // a shard each too
	rs := make([]scanned, 0, n)
	for i := 0; i < n && c.Err() == nil; i++ {
		sh := c.Uvarint("result shard")
		if c.Err() == nil && sh > uint64(shards) {
			c.Fail("result of shard %d outside the placement's %d shards", sh-1, shards)
		}
		r := c.shipped(int32(sh)-1, terms)
		if c.Err() == nil && r.at.shard == wholeShard && r.at.anchor != 0 {
			c.Fail("whole handle anchored at %d, not at the root", r.at.anchor)
		}
		rs = append(rs, r)
	}
	recs := c.recordCount()
	switch {
	case c.Err() != nil:
	case !snippeted && recs > 0:
		c.Fail("%d snippet records in a search-only answer", recs)
	case snippeted && recs != len(rs):
		c.Fail("%d snippet records for %d results", recs, len(rs))
	}
	c.recordsOf(rs[:min(recs, len(rs))])
	return rs, c.Done()
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
	c := newCursor(data)
	var r treesReq
	r.opts = c.options()
	r.query = c.str("query")
	r.timeoutMillis = c.Uvarint("timeout")
	r.fingerprint = c.U64("fingerprint")
	r.bound = c.count("snippet bound", maxSnippetBound+1, 0) - 1
	n := c.count("handle", maxWireResults, 3) // shard, anchor and LCA uvarints
	if c.Err() != nil {
		return r, c.Err()
	}
	r.handles = make([]handle, 0, n)
	for i := 0; i < n && c.Err() == nil; i++ {
		sh := c.Uvarint("handle shard")
		anchor, lca := c.Uvarint("anchor position"), c.Uvarint("lca position")
		if sh > maxWireShards || anchor > math.MaxInt32 || lca > math.MaxInt32 {
			c.Fail("handle (shard %d, anchor %d, lca %d) out of range", int64(sh)-1, anchor, lca)
		}
		r.handles = append(r.handles, handle{shard: int32(sh) - 1, anchor: int32(anchor), lca: int32(lca)})
	}
	return r, c.Done()
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
	c := newCursor(body)
	n := c.count("tree", maxWireResults, minTreeBytes)
	if c.Err() != nil {
		return nil, c.Err()
	}
	trees := make([]treeRecord, 0, n)
	for i := 0; i < n && c.Err() == nil; i++ {
		trees = append(trees, c.scanResult())
	}
	return trees, c.Done()
}

// --- snippets ---

// A snippets response body is one record list (appendRecords): one snippet
// record per requested handle, in request order.

// decodeSnippetsResp scans a snippets response's snippet records.
func decodeSnippetsResp(body []byte) ([][]byte, error) {
	c := newCursor(body)
	n := c.recordCount()
	if c.Err() != nil {
		return nil, c.Err()
	}
	recs := make([][]byte, 0, n)
	for i := 0; i < n && c.Err() == nil; i++ {
		recs = append(recs, c.scanSnippet())
	}
	return recs, c.Done()
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
	c := newCursor(data)
	var r completeReq
	r.prefix = c.str("prefix")
	r.k = c.count("completion", maxWireResults, 0) // a requested k
	return r, c.Done()
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
	c := newCursor(body)
	n := c.count("completion", maxWireResults, 1) // a length each
	var kws []string
	for i := 0; i < n && c.Err() == nil; i++ {
		kws = append(kws, c.str("completion"))
	}
	return kws, c.Done()
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
	c := newCursor(data)
	var r statsReq
	n := c.count("keyword", maxWireStrings, 1) // a length each
	for i := 0; i < n && c.Err() == nil; i++ {
		r.keywords = append(r.keywords, c.str("keyword"))
	}
	return r, c.Done()
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
	c := newCursor(body)
	var r statsResp
	r.totalElements = c.Uvarint("total elements")
	n := c.count("count", maxWireStrings, 1) // a uvarint each
	for i := 0; i < n && c.Err() == nil; i++ {
		r.counts = append(r.counts, c.Uvarint("count"))
	}
	return r, c.Done()
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
	c := newCursor(data)
	var e errMsg
	e.kind = errKind(c.U8("error kind"))
	e.msg = c.str("error message")
	if e.kind < errKindEmptyQuery || e.kind > errKindSkew {
		c.Fail("unknown error kind %d", e.kind)
	}
	return e, c.Done()
}
