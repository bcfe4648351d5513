package remote

import (
	"extract/internal/core"
	"extract/internal/record"
	"extract/internal/shard"
	"extract/xmltree"
)

// The node record flags and the slab bound, as the codec tests spell them.
const (
	nodeKindText = record.FlagText
	nodeFromAttr = record.FlagFromAttr
	slabChunk    = record.SlabChunk
)

// appendSnippet encodes a snippet as a snippet record from its tree and
// IList (read through Derived): how a test makes the record of a snippet
// built by hand, and re-encodes a served one from what its record decodes to.
func appendSnippet(b []byte, g *core.Generated) []byte {
	d := g.Derived()
	return record.AppendSnippet(b, xmltree.AppendXML(nil, d.Snippet.Root), preorderOf(d.Snippet.Root), d.Snippet.Edges, d.IList, d.Snippet.Covered, d.Snippet.Skipped)
}

// preorder lists a tree's nodes as a snippet record does (record.Nodes).
type preorder []*xmltree.Node

func (t *preorder) walk(n *xmltree.Node) {
	*t = append(*t, n)
	for _, c := range n.Children {
		t.walk(c)
	}
}

func preorderOf(root *xmltree.Node) preorder {
	var t preorder
	t.walk(root)
	return t
}

func (t preorder) Len() int                        { return len(t) }
func (t preorder) Node(i int) (*xmltree.Node, int) { return t[i], len(t[i].Children) }

// recordsOf encodes snippets as a shard server's responses carry them
// (appendRecords).
func recordsOf(gs []*core.Generated) *shard.RecordSet {
	recs := make([][]byte, len(gs))
	for i, g := range gs {
		recs[i] = appendSnippet(nil, g)
	}
	return shard.RecordsOf(recs...)
}

// recordStrings copies every record of a set out of its buffers.
func recordStrings(set *shard.RecordSet) []string {
	recs := make([]string, set.Len())
	for i := range recs {
		recs[i] = string(set.At(i))
	}
	return recs
}
