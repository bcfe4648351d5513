package remote

import (
	"encoding/binary"
	"sort"

	"extract/internal/search"
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

	// slots is scanResult's scratch — the unfilled child slots of each open
	// ancestor — kept across the results of one payload.
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

// --- hello ---

type helloMsg struct {
	fingerprint uint64
	shards      int
	owned       []uint32 // owned shard indices, ascending
}

func encodeHello(h helloMsg) []byte {
	b := binary.LittleEndian.AppendUint64(nil, h.fingerprint)
	b = binary.AppendUvarint(b, uint64(h.shards))
	b = binary.AppendUvarint(b, uint64(len(h.owned)))
	for _, s := range h.owned {
		b = binary.AppendUvarint(b, uint64(s))
	}
	return b
}

func decodeHello(data []byte) (helloMsg, error) {
	c := &cursor{data: data}
	var h helloMsg
	h.fingerprint = c.u64("fingerprint")
	h.shards = c.count("shard", maxWireShards)
	n := c.count("owned shard", maxWireShards)
	h.owned = make([]uint32, 0, n)
	for i := 0; i < n && c.err == nil; i++ {
		h.owned = append(h.owned, uint32(c.uvarint("owned shard index")))
	}
	return h, c.done()
}

// --- server-side stage breakdown ---

// serverStages is the server-side timing breakdown a shard server appends
// to eval/digest/full responses as four uvarints: nanoseconds spent
// decoding the request, evaluating shards, computing digests, and encoding
// the response body. Stages that did not run are zero.
type serverStages struct {
	decodeNs uint64
	evalNs   uint64
	digestNs uint64
	encodeNs uint64
}

// appendServerStages appends the trailing stage block to an encoded
// response body.
func appendServerStages(b []byte, s serverStages) []byte {
	b = binary.AppendUvarint(b, s.decodeNs)
	b = binary.AppendUvarint(b, s.evalNs)
	b = binary.AppendUvarint(b, s.digestNs)
	return binary.AppendUvarint(b, s.encodeNs)
}

func (c *cursor) serverStages() serverStages {
	var s serverStages
	s.decodeNs = c.uvarint("decode ns")
	s.evalNs = c.uvarint("eval ns")
	s.digestNs = c.uvarint("digest ns")
	s.encodeNs = c.uvarint("encode ns")
	return s
}

// appendTraceID appends the trailing trace ID (u64 LE) to an encoded
// eval/digest/full request. The copy is deliberate: the base payload is
// shared across replicas and retries, so it must never be appended to in
// place.
func appendTraceID(payload []byte, traceID uint64) []byte {
	out := make([]byte, len(payload), len(payload)+8)
	copy(out, payload)
	return binary.LittleEndian.AppendUint64(out, traceID)
}

// --- eval / digest / full requests ---

type evalReq struct {
	opts          search.Options
	query         string
	timeoutMillis uint64 // 0 = no deadline
	shards        []uint32
	traceID       uint64 // the originating query's trace ID (0 = none)
}

// encodeEvalReq encodes everything but the trailing trace ID, which
// replica.call appends per attempt (appendTraceID).
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
	r.traceID = c.u64("trace id")
	return r, c.done()
}

// fullReq doubles as the digest request (same fields, different type byte
// on the frame): digests re-run the cheap no-LCA evaluation of
// prefilter-skipped shards, the full request evaluates the reconstructed
// whole document.
type fullReq struct {
	opts          search.Options
	query         string
	timeoutMillis uint64
	shards        []uint32 // digest request only; empty for full eval
	traceID       uint64   // the originating query's trace ID (0 = none)
}

func encodeFullReq(r fullReq) []byte {
	return encodeEvalReq(evalReq(r))
}

func decodeFullReq(data []byte) (fullReq, error) {
	r, err := decodeEvalReq(data)
	return fullReq(r), err
}

// --- digests ---

const (
	digestRootAnchored = 1 << iota
	digestNonRootLCAs
	digestHasFree
	digestSkipped
)

func appendDigest(b []byte, d shard.Digest, skipped bool) []byte {
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
	if skipped {
		flags |= digestSkipped
	}
	b = append(b, flags)
	if skipped {
		return b
	}
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

func (c *cursor) digest() (d shard.Digest, skipped bool) {
	flags := c.u8("digest flags")
	d.RootAnchored = flags&digestRootAnchored != 0
	d.HasNonRootLCAs = flags&digestNonRootLCAs != 0
	if flags&digestSkipped != 0 {
		return d, true
	}
	k := c.count("keyword", maxWireStrings)
	if k > len(c.data)-c.off {
		c.fail("truncated digest (%d keywords)", k)
		return d, false
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
	return d, false
}

func boolByte(v bool) byte {
	if v {
		return 1
	}
	return 0
}

// --- results ---

const (
	nodeKindText = 1 << iota
	nodeFromAttr
)

// appendResult encodes one result losslessly: the result tree in preorder
// (labels, values, attribute origin, child counts), the LCA's position
// within it, and the per-keyword match positions. Positions are preorder
// ordinals relative to the result root, so the decoder (scanResult, build)
// rebuilds an identical finalized tree and re-resolves them. A view is
// encoded straight from the source document's nodes, nothing copied.
func appendResult(b []byte, r *search.Result) []byte {
	nodes := r.Doc.Nodes()
	b = binary.AppendUvarint(b, uint64(len(nodes)))
	for _, n := range nodes {
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
		b = binary.AppendUvarint(b, uint64(len(n.Children)))
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

	kws := make([]string, 0, len(r.Matches))
	for kw := range r.Matches {
		kws = append(kws, kw)
	}
	sort.Strings(kws)
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

// scanned is one result of a decoded response: validated, not yet built.
// Decoding is split in two because the merge keeps a fraction of what the
// shards ship (shard.MergeTake decides from the counts alone): scanResult
// applies every check to every shipped result and allocates nothing, build
// turns the ranges that win into trees and cannot fail.
type scanned struct {
	// enc is the result's encoding. It aliases the payload it was scanned
	// from, which is why the router's frame payload must stay a fresh
	// allocation per frame (readFrame): ranges outlive the exchange, and the
	// connection is back in the pool — possibly reading its next frame —
	// before they are built. Reusing a read buffer is safe only for the
	// small request frames a shard server decodes fully before replying.
	enc   []byte
	nodes int // tree nodes, 1 ≤ nodes ≤ maxTreeNodes
}

// minResultBytes is the shortest encoded result (a childless root with an
// empty label, no LCA, no matches); it bounds a claimed result count by the
// payload that would have to carry it.
const minResultBytes = 6

// scanResult validates one encoded result in place and returns its range.
// Everything build reads is checked here — counts against their caps, the
// tree's shape, every ordinal and string length — so a malformed payload
// fails the exchange (and fails over) before anything is allocated for it.
func (c *cursor) scanResult() scanned {
	start := c.off
	total := c.count("tree node", maxTreeNodes)
	if c.err != nil {
		return scanned{}
	}
	if total == 0 {
		c.fail("empty result tree")
		return scanned{}
	}
	// Iterative preorder walk over the unfilled child slots of each ancestor
	// of the node at hand, so hostile nesting depth cannot overflow the
	// decoder's own stack. An ancestor stays on the stack until its whole
	// subtree has arrived.
	slots := c.slots[:0]
	children := 0
	for i := 0; i < total; i++ {
		flags := c.u8("node flags")
		c.span("node text")
		kids := c.count("child", uint64(total))
		if c.err != nil {
			return scanned{}
		}
		if flags&nodeKindText != 0 && kids != 0 {
			c.fail("text node with %d children", kids)
			return scanned{}
		}
		if len(slots) > 0 {
			slots[len(slots)-1]--
		} else if i > 0 {
			c.fail("multiple roots in result tree")
			return scanned{}
		}
		if kids > 0 {
			// build carves every Children slice out of one total-1 arena.
			if children += kids; children > total-1 {
				c.fail("child counts exceed the tree's %d nodes", total)
				return scanned{}
			}
			slots = append(slots, kids)
		}
		for len(slots) > 0 && slots[len(slots)-1] == 0 {
			slots = slots[:len(slots)-1]
		}
	}
	c.slots = slots
	if len(slots) != 0 {
		c.fail("result tree truncated: %d unfilled child slots", slots[len(slots)-1])
		return scanned{}
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
		return scanned{}
	}
	return scanned{enc: c.data[start:c.off:c.off], nodes: total}
}

// slabChunk bounds one allocation of a built tree's node slab: 192 nodes ×
// 104 B = 19.5 KB stays inside the allocator's small size classes. One slab
// per result (≈ 38 KB at the benchmark's mean result size, a large-object
// span each) measurably raised peak RSS.
const slabChunk = 192

// validated walks an encoding scanResult has accepted; it checks nothing.
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

func (v *validated) str() string {
	n := v.uvarint()
	v.off += n
	return v.text[v.off-n : v.off]
}

// build materializes a scanned result as a finalized document of its own,
// the way internal/persist loads one: nodes arrive in preorder with their
// child counts, so a single pass fills a node slab, carves every Children
// slice out of one arena, assigns Ord/Start/End/Parent as it goes and hands
// the sequence to xmltree.AdoptFinalized. Allocations are a constant per result plus one per
// slab chunk, none per node; every label, value and match keyword is a
// substring of one copy of the encoding, so the built tree pins nothing of
// the frame it arrived in. Anchor is the rebuilt root and Matches point into
// the rebuilt tree, preserving the relative depths the ranking scorer reads.
//
// The wire carries every string inline, so the symbol ids (Node.Sym) are
// interned here, as NewDocument would (a result has few distinct strings next
// to its nodes).
func (s scanned) build() *search.Result {
	v := validated{text: string(s.enc)}
	total := v.uvarint()
	syms := xmltree.NewSymbols()
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
		syms.Assign(n)
		n.FromAttr = flags&nodeFromAttr != 0
		n.Ord, n.Start, n.End = i, int32(i), int32(i)
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
			open.End = int32(i)
			open = open.Parent
		}
	}

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

func appendResults(b []byte, rs []*search.Result) []byte {
	b = binary.AppendUvarint(b, uint64(len(rs)))
	for _, r := range rs {
		b = appendResult(b, r)
	}
	return b
}

// results scans one result list: one slice per list, nothing per result.
func (c *cursor) results() []scanned {
	n := c.count("result", maxWireResults)
	if n > (len(c.data)-c.off)/minResultBytes {
		c.fail("result count %d exceeds the payload that would carry it", n)
	}
	if c.err != nil {
		return nil
	}
	rs := make([]scanned, 0, n)
	for i := 0; i < n; i++ {
		r := c.scanResult()
		if c.err != nil {
			return nil
		}
		rs = append(rs, r)
	}
	return rs
}

// --- eval response ---

// shardAnswer is one shard's share of an evaluation on the shard server. A
// prefilter-skipped shard carries only the skipped marker; an evaluated
// shard carries its digest evidence and the local results it ships.
type shardAnswer struct {
	shard   uint32
	skipped bool
	digest  shard.Digest
	results []*search.Result
}

// evalAnswer is what a shard server computed for one eval request, before
// encoding.
type evalAnswer struct {
	fingerprint uint64
	direct      bool // single-shard corpus: results are the whole answer
	results     []*search.Result
	shards      []shardAnswer
}

func appendEvalResp(b []byte, a evalAnswer) []byte {
	b = binary.LittleEndian.AppendUint64(b, a.fingerprint)
	b = append(b, boolByte(a.direct))
	if a.direct {
		return appendResults(b, a.results)
	}
	b = binary.AppendUvarint(b, uint64(len(a.shards)))
	for _, s := range a.shards {
		b = binary.AppendUvarint(b, uint64(s.shard))
		b = appendDigest(b, s.digest, s.skipped)
		if !s.skipped {
			b = appendResults(b, s.results)
		}
	}
	return b
}

// shardResp is one shard's share of a decoded evaluation response: the
// router-side mirror of shardAnswer, its results scanned but not built.
type shardResp struct {
	shard   uint32
	skipped bool
	digest  shard.Digest
	results []scanned
}

type evalResp struct {
	fingerprint uint64
	direct      bool
	results     []scanned
	shards      []shardResp
	stages      serverStages // server-side timing breakdown
}

func decodeEvalResp(data []byte) (evalResp, error) {
	c := &cursor{data: data}
	var r evalResp
	r.fingerprint = c.u64("fingerprint")
	r.direct = c.u8("direct flag") != 0
	if r.direct {
		r.results = c.results()
		r.stages = c.serverStages()
		return r, c.done()
	}
	n := c.count("shard response", maxWireShards)
	r.shards = make([]shardResp, 0, n)
	for i := 0; i < n; i++ {
		var s shardResp
		s.shard = uint32(c.uvarint("shard index"))
		s.digest, s.skipped = c.digest()
		if !s.skipped {
			s.results = c.results()
		}
		if c.err != nil {
			return r, c.err
		}
		r.shards = append(r.shards, s)
	}
	r.stages = c.serverStages()
	return r, c.done()
}

// --- digest response ---

type digestResp struct {
	fingerprint uint64
	shards      []uint32
	digests     []shard.Digest
	stages      serverStages // server-side timing breakdown
}

func encodeDigestResp(r digestResp) []byte {
	b := binary.LittleEndian.AppendUint64(nil, r.fingerprint)
	b = binary.AppendUvarint(b, uint64(len(r.digests)))
	for i, d := range r.digests {
		b = binary.AppendUvarint(b, uint64(r.shards[i]))
		b = appendDigest(b, d, false)
	}
	return b
}

func decodeDigestResp(data []byte) (digestResp, error) {
	c := &cursor{data: data}
	var r digestResp
	r.fingerprint = c.u64("fingerprint")
	n := c.count("digest", maxWireShards)
	for i := 0; i < n && c.err == nil; i++ {
		r.shards = append(r.shards, uint32(c.uvarint("shard index")))
		d, _ := c.digest()
		r.digests = append(r.digests, d)
	}
	r.stages = c.serverStages()
	return r, c.done()
}

// --- full response ---

type fullResp struct {
	fingerprint uint64
	results     []scanned
	stages      serverStages // server-side timing breakdown
}

func appendFullResp(b []byte, fingerprint uint64, results []*search.Result) []byte {
	b = binary.LittleEndian.AppendUint64(b, fingerprint)
	return appendResults(b, results)
}

func decodeFullResp(data []byte) (fullResp, error) {
	c := &cursor{data: data}
	var r fullResp
	r.fingerprint = c.u64("fingerprint")
	r.results = c.results()
	r.stages = c.serverStages()
	return r, c.done()
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
	fingerprint   uint64
	totalElements uint64
	counts        []uint64
}

func encodeStatsResp(r statsResp) []byte {
	b := binary.LittleEndian.AppendUint64(nil, r.fingerprint)
	b = binary.AppendUvarint(b, r.totalElements)
	b = binary.AppendUvarint(b, uint64(len(r.counts)))
	for _, v := range r.counts {
		b = binary.AppendUvarint(b, v)
	}
	return b
}

func decodeStatsResp(data []byte) (statsResp, error) {
	c := &cursor{data: data}
	var r statsResp
	r.fingerprint = c.u64("fingerprint")
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
	if e.kind < errKindEmptyQuery || e.kind > errKindBadShard {
		c.fail("unknown error kind %d", e.kind)
	}
	return e, c.done()
}
