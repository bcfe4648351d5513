package bench

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"os"
	"sort"

	"extract/internal/classify"
	"extract/internal/core"
	"extract/internal/index"
	"extract/internal/keys"
	"extract/xmltree"
)

// The rebuild yardstick of the persist gate: the first index format this
// repository wrote (XTIX version 1, varint-coded), whose loader re-tokenizes
// the inverted index on every load and builds only what a corpus carries.
// internal/persist refuses these images; the writer and the loader live on
// here only as the "before" side of load_rebuild_ns / load_speedup /
// legacy_bytes, measured in the same run as the packed load so the gate is
// machine-normalized. FROZEN — yardstick, never edit: a change here moves
// the baseline every persist row of BENCH_search.json is judged against.

const (
	legacyMagic   = "XTIX"
	legacyVersion = 1
)

var errLegacyFormat = errors.New("bench: bad legacy image")

// saveLegacy writes the corpus in the version 1 varint format:
//
//	magic "XTIX" | version u8
//	string table: count, then length-prefixed UTF-8 strings
//	tree: preorder; per node a tag byte (kind | has-children markers),
//	      label/value string ids, child count
//	classification: per label (string id, category byte)
//	keys: count, then (entity id, attr id)
//	postings are NOT stored: the inverted index is rebuilt on load
//
// The format drops the DTD and DOCTYPE internal subset.
func saveLegacy(w io.Writer, c *core.Corpus) error {
	bw := bufio.NewWriter(w)

	// String table: labels, values, key attrs — deduplicated.
	ids := map[string]uint64{}
	var table []string
	intern := func(s string) uint64 {
		if id, ok := ids[s]; ok {
			return id
		}
		id := uint64(len(table))
		ids[s] = id
		table = append(table, s)
		return id
	}
	if c.Doc.Root != nil {
		c.Doc.Root.Walk(func(n *xmltree.Node) bool {
			intern(n.Label)
			intern(n.Value)
			return true
		})
	}
	labels := labelSet(c.Cls)
	for _, l := range labels {
		intern(l)
	}
	keyed := c.Keys.Entities()
	for _, e := range keyed {
		intern(e)
		if a, ok := c.Keys.KeyAttr(e); ok {
			intern(a)
		}
	}

	var buf []byte
	buf = append(buf, legacyMagic...)
	buf = append(buf, legacyVersion)
	buf = binary.AppendUvarint(buf, uint64(len(table)))
	for _, s := range table {
		buf = binary.AppendUvarint(buf, uint64(len(s)))
		buf = append(buf, s...)
	}
	if _, err := bw.Write(buf); err != nil {
		return err
	}

	// Tree, preorder.
	nodeCount := 0
	if c.Doc.Root != nil {
		nodeCount = c.Doc.Root.NodeCount()
	}
	buf = binary.AppendUvarint(nil, uint64(nodeCount))
	if _, err := bw.Write(buf); err != nil {
		return err
	}
	var werr error
	var writeNode func(n *xmltree.Node)
	writeNode = func(n *xmltree.Node) {
		if werr != nil {
			return
		}
		var tag byte
		if n.IsText() {
			tag |= 1
		}
		if n.FromAttr {
			tag |= 2
		}
		b := []byte{tag}
		b = binary.AppendUvarint(b, ids[n.Label])
		b = binary.AppendUvarint(b, ids[n.Value])
		b = binary.AppendUvarint(b, uint64(len(n.Children)))
		if _, err := bw.Write(b); err != nil {
			werr = err
			return
		}
		for _, ch := range n.Children {
			writeNode(ch)
		}
	}
	if c.Doc.Root != nil {
		writeNode(c.Doc.Root)
	}
	if werr != nil {
		return werr
	}

	// Classification.
	buf = binary.AppendUvarint(nil, uint64(len(labels)))
	for _, l := range labels {
		buf = binary.AppendUvarint(buf, ids[l])
		buf = append(buf, byte(c.Cls.OfLabel(l)))
	}
	// Keys.
	buf = binary.AppendUvarint(buf, uint64(len(keyed)))
	for _, e := range keyed {
		a, _ := c.Keys.KeyAttr(e)
		buf = binary.AppendUvarint(buf, ids[e])
		buf = binary.AppendUvarint(buf, ids[a])
	}
	if _, err := bw.Write(buf); err != nil {
		return err
	}
	return bw.Flush()
}

// labelSet returns every classified label, sorted. It draws from the full
// category listing, so labels known only from a DTD (never instantiated in
// the document) are included and survive the round trip.
func labelSet(cls *classify.Classification) []string {
	set := map[string]bool{}
	for l := range cls.Categories() {
		set[l] = true
	}
	out := make([]string, 0, len(set))
	for l := range set {
		out = append(out, l)
	}
	sort.Strings(out)
	return out
}

// loadLegacyFile loads a version 1 image the way a server opened one: the
// whole file read once, then streamed through the varint decoder.
func loadLegacyFile(path string) (*core.Corpus, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	return loadLegacy(bufio.NewReader(bytes.NewReader(data)))
}

// loadLegacy reads a version 1 corpus. The inverted index is rebuilt (a
// linear pass); classification and keys are restored exactly as saved, so
// DTD-derived decisions survive even though the DTD itself is not stored in
// this format version.
func loadLegacy(br *bufio.Reader) (*core.Corpus, error) {
	head := make([]byte, len(legacyMagic)+1)
	if _, err := io.ReadFull(br, head); err != nil {
		return nil, fmt.Errorf("%w: %v", errLegacyFormat, err)
	}

	tableLen, err := binary.ReadUvarint(br)
	if err != nil {
		return nil, fmt.Errorf("%w: string table: %v", errLegacyFormat, err)
	}
	if tableLen > 1<<28 {
		return nil, fmt.Errorf("%w: absurd string table size", errLegacyFormat)
	}
	table := make([]string, tableLen)
	for i := range table {
		n, err := binary.ReadUvarint(br)
		if err != nil || n > 1<<24 {
			return nil, fmt.Errorf("%w: string %d", errLegacyFormat, i)
		}
		b := make([]byte, n)
		if _, err := io.ReadFull(br, b); err != nil {
			return nil, fmt.Errorf("%w: string %d: %v", errLegacyFormat, i, err)
		}
		table[i] = string(b)
	}
	str := func(id uint64) (string, error) {
		if id >= uint64(len(table)) {
			return "", fmt.Errorf("%w: string id %d out of range", errLegacyFormat, id)
		}
		return table[id], nil
	}

	nodeCount, err := binary.ReadUvarint(br)
	if err != nil {
		return nil, fmt.Errorf("%w: node count: %v", errLegacyFormat, err)
	}
	read := uint64(0)
	var readNode func() (*xmltree.Node, error)
	readNode = func() (*xmltree.Node, error) {
		if read >= nodeCount {
			return nil, fmt.Errorf("%w: more nodes than declared", errLegacyFormat)
		}
		read++
		tag, err := br.ReadByte()
		if err != nil {
			return nil, fmt.Errorf("%w: node tag: %v", errLegacyFormat, err)
		}
		labelID, err := binary.ReadUvarint(br)
		if err != nil {
			return nil, fmt.Errorf("%w: label: %v", errLegacyFormat, err)
		}
		valueID, err := binary.ReadUvarint(br)
		if err != nil {
			return nil, fmt.Errorf("%w: value: %v", errLegacyFormat, err)
		}
		kids, err := binary.ReadUvarint(br)
		if err != nil || kids > nodeCount {
			return nil, fmt.Errorf("%w: child count", errLegacyFormat)
		}
		label, err := str(labelID)
		if err != nil {
			return nil, err
		}
		value, err := str(valueID)
		if err != nil {
			return nil, err
		}
		n := &xmltree.Node{Label: label, Value: value}
		if tag&1 != 0 {
			n.Kind = xmltree.KindText
		}
		n.FromAttr = tag&2 != 0
		for i := uint64(0); i < kids; i++ {
			c, err := readNode()
			if err != nil {
				return nil, err
			}
			xmltree.Append(n, c)
		}
		return n, nil
	}
	var root *xmltree.Node
	if nodeCount > 0 {
		if root, err = readNode(); err != nil {
			return nil, err
		}
		if read != nodeCount {
			return nil, fmt.Errorf("%w: %d nodes declared, %d read", errLegacyFormat, nodeCount, read)
		}
	}
	doc := xmltree.NewDocument(root)

	// Classification.
	nLabels, err := binary.ReadUvarint(br)
	if err != nil || nLabels > 1<<24 {
		return nil, fmt.Errorf("%w: label count", errLegacyFormat)
	}
	cats := make(map[string]classify.Category, nLabels)
	for i := uint64(0); i < nLabels; i++ {
		id, err := binary.ReadUvarint(br)
		if err != nil {
			return nil, fmt.Errorf("%w: label id: %v", errLegacyFormat, err)
		}
		c, err := br.ReadByte()
		if err != nil || c > byte(classify.Value) {
			return nil, fmt.Errorf("%w: category", errLegacyFormat)
		}
		l, err := str(id)
		if err != nil {
			return nil, err
		}
		cats[l] = classify.Category(c)
	}
	cls := classify.FromCategories(cats)

	// Keys.
	nKeys, err := binary.ReadUvarint(br)
	if err != nil || nKeys > 1<<24 {
		return nil, fmt.Errorf("%w: key count", errLegacyFormat)
	}
	km := map[string]string{}
	for i := uint64(0); i < nKeys; i++ {
		eid, err := binary.ReadUvarint(br)
		if err != nil {
			return nil, fmt.Errorf("%w: key entity: %v", errLegacyFormat, err)
		}
		aid, err := binary.ReadUvarint(br)
		if err != nil {
			return nil, fmt.Errorf("%w: key attr: %v", errLegacyFormat, err)
		}
		e, err := str(eid)
		if err != nil {
			return nil, err
		}
		a, err := str(aid)
		if err != nil {
			return nil, err
		}
		km[e] = a
	}

	return &core.Corpus{
		Doc:   doc,
		Index: index.Build(doc),
		Cls:   cls,
		Keys:  keys.FromMap(km),
	}, nil
}
