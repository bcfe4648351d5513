package xmltree_test

import (
	"testing"

	"extract/xmltree"
)

// splitCases are the root-level shapes the splitter decides on, beyond the
// parser's own corpus; split says whether SplitBytes takes the document
// (else a whole parse does).
var splitCases = []struct {
	name, src string
	split     bool
}{
	{"angle brackets in comments, PIs, CDATA and attribute values",
		`<r><a><!-- <b> > --> x <?p a<b>c?><![CDATA[<c></c>]]></a><b k="1>2" l='/>'>t</b></r>`, true},
	{"self-closing children", `<r><a/><b k="v"/><c k='/'/></r>`, true},
	{"white space, comments and PIs among the children", "<r>\n  <a/>\n  <!-- c --> <?p?>\t<b>x</b>\r\n</r>", true},
	{"white space by reference and past ASCII", "<r>&#32;<a/>\u00a0<b/>&#x9;</r>", true},
	{"text among the children", `<r>x<a/></r>`, false},
	{"text after the last child", `<r><a/>tail</r>`, false},
	{"text runs a comment would merge", `<r><a/>x<!-- c -->y<b/></r>`, false},
	{"CDATA among the children", `<r><![CDATA[ ]]><a/></r>`, false},
	{"attributes on the root", `<r k="v"><a/></r>`, false},
	{"namespace declarations on the root", `<p:r xmlns:p="u" xmlns="v"><p:a/><a/></p:r>`, true},
	{"a BOM and an XML declaration", "\uFEFF<?xml version=\"1.0\" encoding=\"UTF-8\"?>\n<r><a/><b/></r>", true},
	{"a DOCTYPE", `<!DOCTYPE r [<!ELEMENT r (a*)>]><r><a/><a/></r>`, true},
	{"a directive inside a child", `<r><a><!DOCTYPE x></a></r>`, false},
	{"an empty root", `<r/>`, true},
	{"mismatched tags inside a child", `<r><a><b></a></b></r>`, true},
	{"an unclosed child", `<r><a><b></b></r>`, false},
	{"a malformed comment inside a child", `<r><a><!-- x -- y --></a></r>`, false},
	{"a bad character inside a child", "<r><a>\x01</a><b/></r>", true},
	{"a second root", `<r><a/></r><s/>`, false},
	{"a mismatched root end tag", `<r><a/></s>`, false},
}

// splitAgrees holds the split path to ParseBytes on src: when SplitBytes
// takes the document, its segments — each parsed on its own, then finalized
// under the root by NewDocument, as a load does — are the document
// ParseBytes builds, node for node; and when a segment's parse fails,
// ParseBytes fails too. And each segment copied out of ParseBytes's document
// (Document.CopySegment) is its parse, detached, and finalizes to the same
// document. It reports whether the document was split.
func splitAgrees(t *testing.T, src string) bool {
	t.Helper()
	want, werr := xmltree.ParseString(src)
	sp := xmltree.SplitBytes([]byte(src))
	if sp == nil {
		return false
	}
	root, copies := xmltree.Elem(sp.Root), xmltree.Elem(sp.Root)
	for i := range sp.Segments {
		n, err := sp.Parse(i)
		if err != nil {
			if werr == nil {
				t.Fatalf("input %q: segment %d fails (%v), ParseBytes accepts", src, i, err)
			}
			return true
		}
		if werr == nil && i < len(want.Root.Children) {
			c := want.CopySegment(want.Root.Children[i])
			sameSegment(t, src, c, n, want)
			xmltree.Append(copies, c)
		}
		xmltree.Append(root, n)
	}
	if werr != nil {
		t.Fatalf("input %q: every segment parses, ParseBytes fails: %v", src, werr)
	}
	got := xmltree.NewDocument(root)
	got.InternalSubset = sp.InternalSubset
	sameDocument(t, src, got, want)
	copied := xmltree.NewDocument(copies)
	copied.InternalSubset = sp.InternalSubset
	sameDocument(t, src, copied, want)
	return true
}

// sameSegment holds a segment copied out of doc to the segment's parse: the
// same detached tree, field for field, its children its own nodes, none of
// doc's.
func sameSegment(t *testing.T, src string, c, p *xmltree.Node, doc *xmltree.Document) {
	t.Helper()
	if c.Parent != nil {
		t.Fatalf("input %q: a copied segment has a parent", src)
	}
	var walk func(c, p *xmltree.Node)
	walk = func(c, p *xmltree.Node) {
		if c.Kind != p.Kind || c.Label != p.Label || c.Value != p.Value || c.FromAttr != p.FromAttr ||
			c.Ord != p.Ord || c.Start != p.Start || c.End != p.End || len(c.Children) != len(p.Children) {
			t.Fatalf("input %q: copied node %+v, parsed %+v", src, *c, *p)
		}
		if c.Origin != nil {
			t.Fatalf("input %q: copied node %+v has an Origin", src, *c)
		}
		for j := range c.Children {
			if c.Children[j].Parent != c || c.Children[j] == doc.ByOrd(c.Children[j].Ord) {
				t.Fatalf("input %q: copied child %d of %+v is not the copy's own", src, j, *c)
			}
			walk(c.Children[j], p.Children[j])
		}
	}
	walk(c, p)
}

func TestSplitMatchesParse(t *testing.T) {
	for _, src := range oracleCorpus() {
		splitAgrees(t, src)
	}
	for _, tc := range splitCases {
		if got := splitAgrees(t, tc.src); got != tc.split {
			t.Errorf("%s: split %v, want %v", tc.name, got, tc.split)
		}
	}
}

// FuzzSplitMatchesParse: whatever the input, the split path and ParseBytes
// agree (see splitAgrees).
func FuzzSplitMatchesParse(f *testing.F) {
	for _, src := range oracleCorpus() {
		f.Add(src)
	}
	for _, tc := range splitCases {
		f.Add(tc.src)
	}
	f.Fuzz(func(t *testing.T, src string) { splitAgrees(t, src) })
}
