package xmltree_test

import (
	"encoding/xml"
	"errors"
	"strings"
	"testing"

	"extract/internal/gen"
	"extract/xmltree"
)

// The differential pin: on every input the scanner and the frozen token loop
// (oracle_test.go) both reject — messages may differ — or both accept with
// identical node sequences and the same internal subset, and under
// WithMaxNodes(k) they agree on ErrTooLarge for every k up to the node count.

// oracleSeeds are the inputs both the fuzz target and the table test start
// from; generated corpora are added to them.
var oracleSeeds = []string{
	// FuzzParse's seeds.
	`<a/>`,
	`<a><b>x</b><b>y</b></a>`,
	`<a k="v"><c/></a>`,
	`<a>text <b/> tail</a>`,
	`<a xmlns:n="u"><n:b/></a>`,
	`<!DOCTYPE a [<!ELEMENT a (b*)>]><a><b/></a>`,
	`<a><![CDATA[raw <stuff>]]></a>`,
	`<a>&amp;&lt;&gt;</a>`,
	`<a`, `</a>`, `<a><b></a></b>`, ``, `plain`,
	"<a>\xff\xfe</a>",
	// Line ends.
	"<a>x\r\ny\rz\n\r</a>", "<a k=\"1\r\n2\r3\"/>", "<a><![CDATA[p\r\nq\r]]></a>", "<a>\r&amp;\n</a>",
	// Character references, valid and not.
	"<a>&#65;&#x42;&#x1F600;&#x9;&#13;</a>", "<a>&#0;</a>", "<a>&#xD800;</a>", "<a>&#xFFFE;</a>",
	"<a>&#x110000;</a>", "<a>&#;</a>", "<a>&#x;</a>", "<a>&#X41;</a>", "<a>&#1a;</a>",
	"<a>&#99999999999999999999999;</a>", "<a>&bogus;</a>", "<a>&amp</a>", "<a>&</a>", "<a>&#",
	`<a k='&lt;&#9;&quot;&apos;'/>`, "<a>\x01</a>", "<a>\uFFFF</a>", "<a>\xed\xa0\x80</a>", "<a>\uFFFD</a>",
	// XML declarations.
	`<?xml version="1.0" encoding="UTF-8"?><a/>`, `<?xml version="1.1"?><a/>`,
	`<?xml version="1.0" encoding="ISO-8859-1"?><a/>`, `<?xml version='1.0' encoding='utf-8'?><a/>`,
	`<a><?xml version="2.0"?></a>`, `<?xml?><a/>`, `<?pi?><a/>`, `<??><a/>`, `<?0pi?><a/>`, `<?pi`,
	// Text split by CDATA, comments and processing instructions merges with a space.
	"<a>x<![CDATA[y]]>z</a>", "<a>x<!-- c -->y</a>", "<a>x<?pi d?>y</a>",
	"<a> x <b/> <![CDATA[ ]]> y </a>", "<a>x<!DOCTYPE b>y</a>", "<a>x<![CDATA[]]>y</a>",
	"<a>]]></a>", "<a>]]]></a>", "<a>]&amp;]></a>", "<a k=']]>'/>", "<a><![CDATA[x]]]></a>", "<a><![CDAT[x]]></a>",
	// "--" inside a comment.
	"<a><!-- a--b --></a>", "<a><!----></a>", "<a><!---></a>", "<a><!-- x ---></a>", "<a><!- x --></a>", "<a><!--",
	// Attributes.
	`<a k="<"/>`, `<a k='a>b'/>`, `<a k=v/>`, `<a k/>`, `<a k = "v" l='w'/>`, `<a k="1"l="2"/>`,
	`<a k="1" k="2"/>`, `<a k="v"`, `<a k="v`, `<a/ >`, `<a xmlns="u" xmlns:p="v" p:k="1" xml:lang="en"/>`,
	`<a xmlns:0="u"/>`, `<a p:xmlns="u"/>`, `<a xmlns:="u"/>`, `<xmlns:a/>`,
	// Names and end tags.
	`<a:x></b:x>`, `<a:x></x>`, `<a:x></a:x>`, `<x></a:x>`, `<a:b:c/>`, `<:a/>`, `<a:/>`, `<1a/>`,
	`<a></a >`, `<a></ a>`, `<a></a x>`, `<a><b/></a></a>`, `<a/><b/>`, `<a/>text<b/>`,
	// Names past ASCII.
	"<é/>", "<a:é/>", "<a:\u0300/>", "<\u00B7/>", "<a\u00A0/>", "<日本>語</日本>", "<a été=\"x\"/>", "<a\xff/>",
	// A byte-order mark, and text outside the root.
	"\uFEFF<a/>", "\uFEFF<?xml version=\"1.0\"?><a/>", "hello <a/> world", "<a/>\xff", "<a/>&bogus;",
	"]]><a/>", "<a/> ]]>", "<a/>&amp;",
	// DOCTYPEs with nested brackets and quotes.
	`<!DOCTYPE a [<!ELEMENT a (#PCDATA)> <!ATTLIST a k CDATA "x>y">]><a/>`,
	`<!DOCTYPE a [<!-- c > --><!ELEMENT a ANY>]><a/>`,
	`<!DOCTYPE a [ <!ENTITY e "<b>"> ]><a/>`,
	`<!DOCTYPE a "quoted > ]"><a/>`, `<!DOCTYPE a [<<>]><a/>`, `<!DOCTYPE a [<!>]><a/>`, `<!>`, `<!DOCTYPE a`,
	`<!DOCTYPE a [<!-- unterminated`, `<!ELEMENT x ANY><!DOCTYPE a [<!ELEMENT a ANY>]><a/>`,
	`<!DOCTYPE a [<!ELEMENT a ANY>]><!DOCTYPE b [<!ELEMENT b ANY>]><a/>`, `<!DOCTYPE a []><a/>`,
	`<!DOCTYPE a [<!ELEMENT a ANY><!-- x --><!-y>]><a/>`, `<a><!DOCTYPE b [<!ELEMENT b ANY>]></a>`,
}

func oracleCorpus() []string {
	seeds := append(append([]string{}, oracleSeeds...), xmltree.StrippedToNonNames...)
	for seed := int64(1); seed <= 3; seed++ {
		seeds = append(seeds,
			xmltree.XMLString(gen.Stores(gen.StoresConfig{Retailers: 2, StoresPerRetailer: 2, ClothesPerStore: 3, Seed: seed}).Root),
			xmltree.XMLString(gen.Auctions(gen.AuctionsConfig{People: 3, Auctions: 2, Items: 3, Seed: seed}).Root))
	}
	return seeds
}

func FuzzParseMatchesOracle(f *testing.F) {
	for _, s := range oracleCorpus() {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, src string) {
		if bindsReservedURI(src) {
			t.Skip("the oracle's answer depends on a namespace binding here; see TestParseMatchesOracle")
		}
		matchOracle(t, src)
	})
}

func TestParseMatchesOracle(t *testing.T) {
	for _, src := range oracleCorpus() {
		matchOracle(t, src)
	}

	// The two places the oracle resolved namespaces and the scanner does
	// not. A prefix bound to "" made the oracle skip the stripping check,
	// accepting a label that serializes to something no parser re-reads;
	// a prefix bound to "xmlns" made it drop the prefixed attributes as if
	// they were declarations. The scanner strips by prefix, as written.
	undeclared := `<r xmlns:p=""><p:0/></r>`
	if _, err := xmltree.OracleParse(strings.NewReader(undeclared)); err != nil {
		t.Fatalf("oracle refuses %q (%v): the divergence this pins is gone", undeclared, err)
	}
	if _, err := xmltree.ParseString(undeclared); err == nil || !strings.Contains(err.Error(), "not a valid XML name") {
		t.Errorf("Parse(%q): %v, want the invalid-name refusal", undeclared, err)
	}
	reserved := `<r xmlns:p="xmlns" p:a="v"/>`
	doc, err := xmltree.ParseString(reserved)
	if err != nil || xmltree.RenderInline(doc.Root) != `r(a:"v")` {
		t.Errorf("Parse(%q) = %v, %v; want the attribute kept", reserved, doc, err)
	}
	for _, src := range []string{undeclared, reserved, `<r xmlns:p="u"/>`} {
		if got, want := bindsReservedURI(src), src != `<r xmlns:p="u"/>`; got != want {
			t.Errorf("bindsReservedURI(%q) = %v", src, got)
		}
	}
}

// bindsReservedURI reports whether src binds a prefix to "" or to "xmlns",
// the bindings under which the oracle's answer is not the scanner's by
// design (TestParseMatchesOracle pins both).
func bindsReservedURI(src string) bool {
	d := xml.NewDecoder(strings.NewReader(src))
	for {
		tok, err := d.RawToken()
		if err != nil {
			return false
		}
		if se, ok := tok.(xml.StartElement); ok {
			for _, a := range se.Attr {
				if a.Name.Space == "xmlns" && (a.Value == "" || a.Value == "xmlns") {
					return true
				}
			}
		}
	}
}

// matchOracle holds the scanner to the oracle on src, whole and under every
// node limit the oracle trips over.
func matchOracle(t *testing.T, src string) {
	t.Helper()
	got, gerr := xmltree.ParseString(src)
	want, werr := xmltree.OracleParse(strings.NewReader(src))
	if (gerr == nil) != (werr == nil) {
		t.Fatalf("input %q:\nscanner: %v\noracle:  %v", src, gerr, werr)
	}
	if gerr == nil {
		sameDocument(t, src, got, want)
	}
	for k := 1; ; k++ {
		_, gerr := xmltree.ParseString(src, xmltree.WithMaxNodes(k))
		_, werr := xmltree.OracleParse(strings.NewReader(src), xmltree.WithMaxNodes(k))
		if (gerr == nil) != (werr == nil) || errors.Is(gerr, xmltree.ErrTooLarge) != errors.Is(werr, xmltree.ErrTooLarge) {
			t.Fatalf("input %q under WithMaxNodes(%d):\nscanner: %v\noracle:  %v", src, k, gerr, werr)
		}
		if !errors.Is(werr, xmltree.ErrTooLarge) {
			break
		}
	}
}

func sameDocument(t *testing.T, src string, got, want *xmltree.Document) {
	t.Helper()
	if got.InternalSubset != want.InternalSubset {
		t.Fatalf("input %q: internal subset %q, oracle %q", src, got.InternalSubset, want.InternalSubset)
	}
	g, w := got.Nodes(), want.Nodes()
	if len(g) != len(w) {
		t.Fatalf("input %q: %d nodes, oracle %d", src, len(g), len(w))
	}
	parentOrd := func(n *xmltree.Node) int {
		if n.Parent == nil {
			return -1
		}
		return n.Parent.Ord
	}
	for i := range g {
		a, b := g[i], w[i]
		if a.Kind != b.Kind || a.Label != b.Label || a.Value != b.Value || a.FromAttr != b.FromAttr ||
			a.Sym != b.Sym || a.Ord != b.Ord || a.Start != b.Start || a.End != b.End ||
			parentOrd(a) != parentOrd(b) || len(a.Children) != len(b.Children) {
			t.Fatalf("input %q: node %d is\n%+v\noracle's\n%+v", src, i, *a, *b)
		}
		for _, c := range a.Children {
			if c.Parent != a {
				t.Fatalf("input %q: node %d's child %v has parent %v", src, i, c, c.Parent)
			}
		}
	}
}
