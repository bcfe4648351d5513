package persist

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"sort"
	"sync"

	"extract/internal/bin"
	"extract/internal/classify"
	"extract/internal/core"
	"extract/internal/index"
	"extract/internal/keys"
	"extract/xmltree"
)

// Byte layout. All integers are little-endian; "slab" means a length-known
// contiguous array decoded in one pass. Every part of the body has a size
// computable from its leading counts, so the reader slices all slabs up
// front and decodes the two big ones — tree and postings — concurrently.
//
//	magic "XTIX" | version u8 = 6 | u8 sectionCount = 5
//	| (u32 length, u32 CRC-32C) x 5 | the five sections, back to back
//
//	meta:      u32 subsetLen, bytes  (DOCTYPE internal subset)
//	           u32 n                 (node count, early so the reader can
//	                                  allocate the node slab while the
//	                                  string table decodes)
//	strings:   u32 count | u32 blobLen | i32[count] lengths | blob
//	tree:      u8[n] tags | i32[n] labelIDs | i32[n] valueIDs
//	           | i32[n] childCounts        (preorder)
//	postings:  u32 K | i32[K] keywordIDs | i32[K] listLens
//	           | u32 P | i32[P] ords | u8[P] fields
//	aux:       class:   u32 C | i32[C] labelIDs | u8[C] categories
//	           keys:    u32 KC | i32[KC] entityIDs | i32[KC] attrIDs
const (
	tagText     = 1
	tagFromAttr = 2

	maxCount = 1 << 28 // sanity bound on any persisted count
)

// Section indices of the section table.
const (
	secMeta = iota
	secStrings
	secTree
	secPostings
	secAux
	numSections
)

var sectionNames = [numSections]string{"meta", "strings", "tree", "postings", "aux"}

// interner assigns dense string ids in first-seen order.
type interner struct {
	ids   map[string]int32
	table []string
}

func newInterner() *interner {
	in := &interner{ids: make(map[string]int32)}
	in.id("") // "" is always id 0: element values, text labels
	return in
}

func (in *interner) id(s string) int32 {
	if id, ok := in.ids[s]; ok {
		return id
	}
	id := int32(len(in.table))
	in.ids[s] = id
	in.table = append(in.table, s)
	return id
}

func appendU32(b []byte, v uint32) []byte {
	return binary.LittleEndian.AppendUint32(b, v)
}

func appendI32(b []byte, v int32) []byte {
	return binary.LittleEndian.AppendUint32(b, uint32(v))
}

// Save writes the analyzed corpus to w: five sections, each materialized so
// its CRC-32C lands in the header before any body byte is written.
func Save(w io.Writer, c *core.Corpus) error {
	in := newInterner()

	nodes := c.Doc.Nodes()
	n := len(nodes)

	// Pre-intern in deterministic order: node labels/values in preorder,
	// then every sorted auxiliary set.
	for _, nd := range nodes {
		in.id(nd.Label)
		in.id(nd.Value)
	}
	vocab := c.Index.Vocabulary()
	for _, kw := range vocab {
		in.id(kw)
	}
	cats := c.Cls.Categories()
	catLabels := make([]string, 0, len(cats))
	for l := range cats {
		catLabels = append(catLabels, l)
	}
	sort.Strings(catLabels)
	for _, l := range catLabels {
		in.id(l)
	}
	keyed := c.Keys.Entities()
	for _, e := range keyed {
		in.id(e)
		if a, ok := c.Keys.KeyAttr(e); ok {
			in.id(a)
		}
	}

	var secs [numSections][]byte

	// Meta.
	buf := make([]byte, 0, 1<<12)
	subset := c.Doc.InternalSubset
	buf = appendU32(buf, uint32(len(subset)))
	buf = append(buf, subset...)
	buf = appendU32(buf, uint32(n))
	secs[secMeta] = buf

	// Strings.
	blobLen := 0
	for _, s := range in.table {
		blobLen += len(s)
	}
	buf = make([]byte, 0, 8+4*len(in.table)+blobLen)
	buf = appendU32(buf, uint32(len(in.table)))
	buf = appendU32(buf, uint32(blobLen))
	for _, s := range in.table {
		buf = appendI32(buf, int32(len(s)))
	}
	for _, s := range in.table {
		buf = append(buf, s...)
	}
	secs[secStrings] = buf

	// Tree slabs.
	buf = make([]byte, 0, 13*n)
	for _, nd := range nodes {
		var tag byte
		if nd.IsText() {
			tag |= tagText
		}
		if nd.FromAttr {
			tag |= tagFromAttr
		}
		buf = append(buf, tag)
	}
	for _, nd := range nodes {
		buf = appendI32(buf, in.ids[nd.Label])
	}
	for _, nd := range nodes {
		buf = appendI32(buf, in.ids[nd.Value])
	}
	for _, nd := range nodes {
		buf = appendI32(buf, int32(len(nd.Children)))
	}
	secs[secTree] = buf

	// Postings.
	total := 0
	for _, kw := range vocab {
		total += c.Index.List(kw).Len()
	}
	buf = make([]byte, 0, 8+8*len(vocab)+5*total)
	buf = appendU32(buf, uint32(len(vocab)))
	for _, kw := range vocab {
		buf = appendI32(buf, in.ids[kw])
	}
	for _, kw := range vocab {
		buf = appendI32(buf, int32(c.Index.List(kw).Len()))
	}
	buf = appendU32(buf, uint32(total))
	for _, kw := range vocab {
		for _, o := range c.Index.List(kw).Ords {
			buf = appendI32(buf, o)
		}
	}
	for _, kw := range vocab {
		for _, f := range c.Index.List(kw).Fields {
			buf = append(buf, byte(f))
		}
	}
	secs[secPostings] = buf

	// Aux: classification + keys.
	buf = make([]byte, 0, 1<<12)
	buf = appendU32(buf, uint32(len(catLabels)))
	for _, l := range catLabels {
		buf = appendI32(buf, in.ids[l])
	}
	for _, l := range catLabels {
		buf = append(buf, byte(cats[l]))
	}

	// Keys.
	buf = appendU32(buf, uint32(len(keyed)))
	for _, e := range keyed {
		buf = appendI32(buf, in.ids[e])
	}
	for _, e := range keyed {
		a, _ := c.Keys.KeyAttr(e)
		buf = appendI32(buf, in.ids[a])
	}

	secs[secAux] = buf

	// Header, then the section bytes.
	head := make([]byte, 0, len(magic)+2+8*numSections)
	head = append(head, magic...)
	head = append(head, version, numSections)
	for _, s := range secs {
		head = appendU32(head, uint32(len(s)))
		head = appendU32(head, crc32.Checksum(s, bin.CRC32C))
	}
	bw := bufio.NewWriter(w)
	if _, err := bw.Write(head); err != nil {
		return err
	}
	for _, s := range secs {
		if _, err := bw.Write(s); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// verifySections validates the section table — section count, lengths
// summing exactly to the body, per-section CRC-32C — and returns the body
// offset decoding starts at. Checksums run before any structural decoding,
// so corruption surfaces here as a named-section error rather than as
// whatever downstream decoder happens to trip.
func verifySections(data []byte) (int, error) {
	tbl := len(magic) + 1
	body := tbl + 1 + 8*numSections
	if len(data) < body {
		return 0, fmt.Errorf("%w: truncated section table", ErrBadFormat)
	}
	if int(data[tbl]) != numSections {
		return 0, fmt.Errorf("%w: section count %d, want %d", ErrBadFormat, data[tbl], numSections)
	}
	pos := body
	for i := 0; i < numSections; i++ {
		ln := int(binary.LittleEndian.Uint32(data[tbl+1+8*i:]))
		want := binary.LittleEndian.Uint32(data[tbl+1+8*i+4:])
		if ln > len(data)-pos {
			return 0, fmt.Errorf("%w: %s section truncated (need %d bytes at offset %d)",
				ErrBadFormat, sectionNames[i], ln, pos)
		}
		if got := crc32.Checksum(data[pos:pos+ln], bin.CRC32C); got != want {
			return 0, fmt.Errorf("%w: %s section checksum mismatch (image corrupt)",
				ErrBadFormat, sectionNames[i])
		}
		pos += ln
	}
	if pos != len(data) {
		return 0, fmt.Errorf("%w: %d trailing bytes after sections", ErrBadFormat, len(data)-pos)
	}
	return body, nil
}

// cursor decodes the packed byte image through the one bounds-checked
// reader (bin.Reader): the first failure sticks as ErrBadFormat.
type cursor struct {
	bin.Reader
}

// count reads a u32 count of elements at least a byte long each and bounds
// it (bin.Reader.Count), which caps allocations on corrupt input.
func (c *cursor) count(what string) int {
	return c.Count(uint64(c.U32(what)), what, maxCount, 1)
}

func (c *cursor) i32slab(n int, what string) []int32 {
	b := c.Bytes(4*n, what)
	if b == nil {
		return nil
	}
	out := make([]int32, n)
	for i := range out {
		out[i] = int32(binary.LittleEndian.Uint32(b[4*i:]))
	}
	return out
}

// stringTable resolves interned ids; ok degrades to a sticky error flag so
// slab decoders can validate after their loops.
type stringTable struct {
	table []string
}

func (t *stringTable) str(id int32) (string, bool) {
	if id < 0 || int(id) >= len(t.table) {
		return "", false
	}
	return t.table[id], true
}

// decodeBody decodes the sections, which start at bodyOff and which
// verifySections has already checksummed. The tree and posting sections —
// the two large ones — decode concurrently: posting lists reference nodes
// by address into the node slab, which is allocated before either decoder
// runs.
func decodeBody(data []byte, bodyOff int) (*core.Corpus, error) {
	c := &cursor{bin.NewReader(data, bodyOff, func(msg string) error {
		return fmt.Errorf("%w: %s", ErrBadFormat, msg)
	})}

	// Meta. A node costs 13 bytes of tree slabs (1 tag + 3 int32 columns);
	// a count the remaining bytes cannot back would otherwise provoke a
	// ~100x-amplified slab allocation from a small crafted file.
	subset := string(c.Bytes(c.count("subset"), "subset"))
	n := c.Count(uint64(c.U32("node")), "node", maxCount, 13)
	if c.Err() != nil {
		return nil, c.Err()
	}

	// The node slab is the largest allocation of the load; start zeroing
	// it on another core while the string table decodes.
	slabCh := make(chan []xmltree.Node, 1)
	go func() { slabCh <- make([]xmltree.Node, n) }()

	// Strings: one blob conversion; table entries share its backing.
	strCount := c.count("string")
	blobLen := c.count("string blob")
	lengths := c.i32slab(strCount, "string lengths")
	blob := string(c.Bytes(blobLen, "string blob"))
	if c.Err() != nil {
		return nil, c.Err()
	}
	table := &stringTable{table: make([]string, strCount)}
	off := 0
	for i, l := range lengths {
		if l < 0 || off+int(l) > len(blob) {
			return nil, fmt.Errorf("%w: string %d out of blob", ErrBadFormat, i)
		}
		table.table[i] = blob[off : off+int(l)]
		off += int(l)
	}
	if off != len(blob) {
		return nil, fmt.Errorf("%w: string blob not fully consumed", ErrBadFormat)
	}

	// Slice every fixed-size section up front.
	tags := c.Bytes(n, "tags")
	labelSlab := c.Bytes(4*n, "label ids")
	valueSlab := c.Bytes(4*n, "value ids")
	ccSlab := c.Bytes(4*n, "child counts")

	k := c.count("keyword")
	kwIDs := c.i32slab(k, "keyword ids")
	listLens := c.i32slab(k, "posting list lengths")
	total := c.count("posting")
	ordSlab := c.Bytes(4*total, "posting ords")
	fieldSlab := c.Bytes(total, "posting fields")

	nCats := c.count("label")
	catIDs := c.i32slab(nCats, "class label ids")
	catBytes := c.Bytes(nCats, "categories")

	nKeys := c.count("key")
	entIDs := c.i32slab(nKeys, "key entity ids")
	attrIDs := c.i32slab(nKeys, "key attribute ids")
	if err := c.Done(); err != nil {
		return nil, err
	}

	// Small tables on this goroutine.
	cats := make(map[string]classify.Category, nCats)
	var auxErr error
	for i := 0; i < nCats; i++ {
		l, ok := table.str(catIDs[i])
		if !ok || catBytes[i] > byte(classify.Value) {
			auxErr = fmt.Errorf("%w: classification entry %d", ErrBadFormat, i)
			break
		}
		cats[l] = classify.Category(catBytes[i])
	}
	km := make(map[string]string, nKeys)
	for i := 0; i < nKeys && auxErr == nil; i++ {
		e, ok1 := table.str(entIDs[i])
		a, ok2 := table.str(attrIDs[i])
		if !ok1 || !ok2 {
			auxErr = fmt.Errorf("%w: key entry %d", ErrBadFormat, i)
			break
		}
		km[e] = a
	}

	syms := denseSyms(tags, labelSlab, valueSlab, strCount)

	// Decode the posting ords while the node slab may still be zeroing.
	ords := make([]int32, total)
	for i := range ords {
		ords[i] = int32(binary.LittleEndian.Uint32(ordSlab[4*i:]))
	}

	// Decode the large sections concurrently. Structure (parents,
	// children, intervals) and content (labels, values, kinds) write
	// disjoint node fields; the posting decoder needs only node
	// addresses and the tag slab, never node contents. None of them waits
	// on another.
	nodeSlab := <-slabCh
	var (
		wg       sync.WaitGroup
		docNodes []*xmltree.Node
		postings map[string]*index.PostingList
		errs     [4]error
	)
	spawn := func(i int, fn func() error) {
		if n < 8192 {
			// Small corpus: goroutine hand-off costs more than it saves.
			errs[i] = fn()
			return
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs[i] = fn()
		}()
	}
	spawn(0, func() (err error) {
		docNodes, err = decodeStructure(nodeSlab, ccSlab)
		return err
	})
	half := n / 2
	spawn(1, func() error {
		return decodeContent(nodeSlab, tags, labelSlab, valueSlab, ccSlab, table, syms, 0, half)
	})
	spawn(2, func() error {
		return decodeContent(nodeSlab, tags, labelSlab, valueSlab, ccSlab, table, syms, half, n)
	})
	spawn(3, func() (err error) {
		postings, err = decodePostings(nodeSlab, tags, kwIDs, listLens, ords, fieldSlab, table)
		return err
	})

	wg.Wait()
	if auxErr != nil {
		return nil, auxErr
	}
	for _, e := range errs {
		if e != nil {
			return nil, e
		}
	}
	doc := xmltree.AdoptFinalized(docNodes)
	doc.InternalSubset = subset
	return &core.Corpus{
		Doc:   doc,
		Index: index.FromParts(doc, postings),
		Cls:   classify.FromCategories(cats),
		Keys:  keys.FromMap(km),
	}, nil
}

// decodeStructure links the tree into the caller's slab (xmltree.Linker),
// assigning every finalization field — preorder position, interval, parent,
// children — in a single pass, so no NewDocument re-walk is needed
// afterwards. It writes only structural node fields; decodeContent fills
// labels and kinds concurrently.
func decodeStructure(nodeSlab []xmltree.Node, ccSlab []byte) ([]*xmltree.Node, error) {
	n := len(nodeSlab)
	if n == 0 {
		return nil, nil
	}
	docNodes := make([]*xmltree.Node, n)
	link := xmltree.NewLinker(make([]*xmltree.Node, n-1))
	for i := range nodeSlab {
		docNodes[i] = &nodeSlab[i]
		if err := link.Link(docNodes[i], int(binary.LittleEndian.Uint32(ccSlab[4*i:]))); err != nil {
			return nil, fmt.Errorf("%w: %w", ErrBadFormat, err)
		}
	}
	if err := link.Close(); err != nil {
		return nil, fmt.Errorf("%w: %w", ErrBadFormat, err)
	}
	return docNodes, nil
}

// denseSyms derives the document's symbol ids (xmltree.Node.Sym) from the
// string-table references the tree section already holds, hashing nothing:
// one pass renumbers the table ids element labels use, and separately those
// text values use, densely in first-seen order — what NewDocument would have
// assigned, given that the writer interns every string once. The result is
// indexed by table id, labels in [0] and values in [1]; an id out of the
// table's range is left for decodeContent to refuse.
func denseSyms(tags, labelSlab, valueSlab []byte, strCount int) [2][]int32 {
	syms := [2][]int32{make([]int32, strCount), make([]int32, strCount)}
	var next [2]int32
	for i, tag := range tags {
		space, slab := 0, labelSlab
		if tag&tagText != 0 {
			space, slab = 1, valueSlab
		}
		id := binary.LittleEndian.Uint32(slab[4*i:])
		if id >= uint32(strCount) {
			continue
		}
		// Stored +1 while numbering, so 0 means "not seen yet".
		if syms[space][id] == 0 {
			next[space]++
			syms[space][id] = next[space]
		}
	}
	for _, ids := range syms {
		for i := range ids {
			ids[i]--
		}
	}
	return syms
}

// decodeContent fills labels, values, kinds and symbol ids for
// nodes[lo:hi]. Per-node it touches only the fields decodeStructure leaves
// alone, so the two can run concurrently, and ranges can shard across
// goroutines.
func decodeContent(nodeSlab []xmltree.Node, tags, labelSlab, valueSlab, ccSlab []byte, table *stringTable, syms [2][]int32, lo, hi int) error {
	for i := lo; i < hi; i++ {
		nd := &nodeSlab[i]
		if tags[i]&^(tagText|tagFromAttr) != 0 {
			return fmt.Errorf("%w: node %d: unknown tag bits", ErrBadFormat, i)
		}
		if tags[i]&tagText != 0 {
			if binary.LittleEndian.Uint32(ccSlab[4*i:]) != 0 {
				return fmt.Errorf("%w: node %d: text node with children", ErrBadFormat, i)
			}
			nd.Kind = xmltree.KindText
		}
		nd.FromAttr = tags[i]&tagFromAttr != 0
		labelID := int32(binary.LittleEndian.Uint32(labelSlab[4*i:]))
		valueID := int32(binary.LittleEndian.Uint32(valueSlab[4*i:]))
		var ok1, ok2 bool
		nd.Label, ok1 = table.str(labelID)
		nd.Value, ok2 = table.str(valueID)
		if !ok1 || !ok2 {
			return fmt.Errorf("%w: node %d: string id out of range", ErrBadFormat, i)
		}
		if nd.Kind == xmltree.KindText {
			nd.Sym = syms[1][valueID]
		} else {
			nd.Sym = syms[0][labelID]
		}
	}
	return nil
}

// decodePostings rebuilds the packed posting lists. It references nodes by
// address only (&nodeSlab[ord]) and checks element-ness against the tag
// slab, so it never reads node fields and can run concurrently with
// decodeTree filling them in.
func decodePostings(nodeSlab []xmltree.Node, tags []byte, kwIDs, listLens []int32, ords []int32, fieldSlab []byte, table *stringTable) (map[string]*index.PostingList, error) {
	n := len(nodeSlab)
	k := len(kwIDs)
	total := len(fieldSlab)
	postings := make(map[string]*index.PostingList, k)
	lists := make([]index.PostingList, k)
	nodeBacking := make([]*xmltree.Node, total)
	fieldBacking := make([]index.MatchField, total)
	pos := 0
	for i := 0; i < k; i++ {
		kw, ok := table.str(kwIDs[i])
		if !ok {
			return nil, fmt.Errorf("%w: keyword id %d", ErrBadFormat, kwIDs[i])
		}
		ln := int(listLens[i])
		if ln < 0 || pos+ln > total {
			return nil, fmt.Errorf("%w: posting list %d overruns slab", ErrBadFormat, i)
		}
		pl := &lists[i]
		pl.Ords = ords[pos : pos+ln]
		pl.Nodes = nodeBacking[pos : pos+ln]
		pl.Fields = fieldBacking[pos : pos+ln]
		prev := int32(-1)
		for j, ord := range pl.Ords {
			if ord <= prev || int(ord) >= n {
				return nil, fmt.Errorf("%w: posting %q: ord %d out of order or range", ErrBadFormat, kw, ord)
			}
			if tags[ord]&tagText != 0 {
				return nil, fmt.Errorf("%w: posting %q targets a text node", ErrBadFormat, kw)
			}
			prev = ord
			pl.Nodes[j] = &nodeSlab[ord]
			pl.Fields[j] = index.MatchField(fieldSlab[pos+j])
		}
		if _, dup := postings[kw]; dup || kw == "" {
			return nil, fmt.Errorf("%w: duplicate or empty keyword", ErrBadFormat)
		}
		postings[kw] = pl
		pos += ln
	}
	if pos != total {
		return nil, fmt.Errorf("%w: posting slab not fully consumed", ErrBadFormat)
	}
	return postings, nil
}
