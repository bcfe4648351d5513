package xmltree

import (
	"slices"
	"strings"
	"testing"
)

const storeXML = `
<retailer>
  <name>Brook Brothers</name>
  <product>apparel</product>
  <store id="s1">
    <state>Texas</state>
    <city>Houston</city>
    <merchandises>
      <clothes><category>suit</category><fitting>man</fitting></clothes>
    </merchandises>
  </store>
</retailer>`

func TestParseBasic(t *testing.T) {
	doc, err := ParseString(storeXML)
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	if doc.Root.Label != "retailer" {
		t.Fatalf("root = %q, want retailer", doc.Root.Label)
	}
	name := doc.Root.ChildElement("name")
	if name == nil || name.TextValue() != "Brook Brothers" {
		t.Fatalf("name = %v", name)
	}
	store := doc.Root.ChildElement("store")
	if store == nil {
		t.Fatal("no store element")
	}
	// The id attribute is normalized to an attribute-shaped child.
	id := store.ChildElement("id")
	if id == nil || !id.FromAttr || id.TextValue() != "s1" {
		t.Fatalf("id attr = %v", id)
	}
	city := store.ChildElement("city")
	if city == nil || city.TextValue() != "Houston" {
		t.Fatalf("city = %v", city)
	}
}

// Parse assigns preorder positions that follow the order of the Dewey labels
// (child-index paths, derived by childPath) the paper identifies nodes by.
func TestParseDeweyAssignment(t *testing.T) {
	doc, err := ParseString(`<a><b><c/></b><d/></a>`)
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	nodes := doc.Nodes()
	want := [][]int{nil, {0}, {0, 0}, {1}}
	if len(nodes) != len(want) {
		t.Fatalf("%d nodes, want %d", len(nodes), len(want))
	}
	for i, n := range nodes {
		if n.Ord != i || doc.ByOrd(i) != n {
			t.Errorf("ord mismatch at %d: %d", i, n.Ord)
		}
		if got := childPath(n); !slices.Equal(got, want[i]) {
			t.Errorf("node %d (%v) sits at path %v, want %v", i, n, got, want[i])
		}
	}
}

func TestParseErrors(t *testing.T) {
	cases := []string{
		``,               // empty
		`<a>`,            // unclosed
		`<a></b>`,        // mismatched
		`<a/><b/>`,       // two roots
		`text only`,      // no element
		`<a><b></a></b>`, // crossed
	}
	for _, c := range cases {
		if _, err := ParseString(c); err == nil {
			t.Errorf("Parse(%q) succeeded, want error", c)
		}
	}
}

// strippedToNonNames are documents whose prefixed names are fine as written
// but lose their only legal first character with the prefix: "0" and "1" are
// not XML names, so a tree labelled with them serializes to something Parse
// refuses. FuzzParse seeds with them too.
var strippedToNonNames = []string{
	`<A:0/>`,
	`<r a:0="v"/>`,
	`<r xmlns:a="u"><a:1>x</a:1></r>`,
}

// TestParseRefusesNamesStrippingBreaks: namespace stripping (always on)
// makes such a document a clean parse error, not a tree the system can
// serve but never re-read.
func TestParseRefusesNamesStrippingBreaks(t *testing.T) {
	for _, src := range strippedToNonNames {
		if doc, err := ParseString(src); err == nil {
			t.Errorf("Parse(%q) accepted a tree that serializes to %q", src, XMLString(doc.Root))
		} else if !strings.Contains(err.Error(), "not a valid XML name") {
			t.Errorf("Parse(%q): %v, want the invalid-name refusal", src, err)
		}
	}
	// A prefix in front of an ordinary name still strips.
	for src, want := range map[string]string{`<a:b/>`: "b", `<a:_1/>`: "_1", `<a:é/>`: "é"} {
		if doc, err := ParseString(src); err != nil || doc.Root.Label != want {
			t.Errorf("Parse(%q) = %v, %v; want root %q", src, doc, err, want)
		}
	}
}

func TestParseMaxNodes(t *testing.T) {
	var b strings.Builder
	b.WriteString("<root>")
	for i := 0; i < 100; i++ {
		b.WriteString("<item>v</item>")
	}
	b.WriteString("</root>")
	if _, err := ParseString(b.String(), WithMaxNodes(50)); err == nil {
		t.Error("expected ErrTooLarge")
	}
	if _, err := ParseString(b.String(), WithMaxNodes(10000)); err != nil {
		t.Errorf("unexpected error under generous limit: %v", err)
	}
}

func TestParseWhitespaceAndEntities(t *testing.T) {
	doc, err := ParseString("<a>\n  <b>x &amp; y</b>\n</a>")
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	if len(doc.Root.Children) != 1 {
		t.Fatalf("whitespace text kept: %d children", len(doc.Root.Children))
	}
	if got := doc.Root.Children[0].TextValue(); got != "x & y" {
		t.Errorf("entity text = %q", got)
	}
}

func TestRoundTrip(t *testing.T) {
	doc, err := ParseString(storeXML)
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	out := XMLString(doc.Root)
	doc2, err := ParseString(out)
	if err != nil {
		t.Fatalf("reparse: %v\n%s", err, out)
	}
	if !structurallyEqual(doc.Root, doc2.Root) {
		t.Errorf("round trip changed the tree:\n%s\nvs\n%s",
			RenderASCII(doc.Root), RenderASCII(doc2.Root))
	}
}

// structurallyEqual ignores FromAttr (serialization may legally flip the
// attribute-vs-element representation for attribute-shaped nodes) but
// requires identical labels, kinds, values and child order.
func structurallyEqual(a, b *Node) bool {
	if a.Kind != b.Kind || a.Label != b.Label || a.Value != b.Value {
		return false
	}
	if len(a.Children) != len(b.Children) {
		return false
	}
	for i := range a.Children {
		if !structurallyEqual(a.Children[i], b.Children[i]) {
			return false
		}
	}
	return true
}

func TestRenderASCII(t *testing.T) {
	doc, _ := ParseString(`<a><b>x</b><c><d>y</d></c></a>`)
	got := RenderASCII(doc.Root)
	want := "a\n├─ b:\"x\"\n└─ c\n   └─ d:\"y\"\n"
	if got != want {
		t.Errorf("RenderASCII:\n%q\nwant\n%q", got, want)
	}
}

func TestRenderInline(t *testing.T) {
	doc, _ := ParseString(`<a><b>x</b><c><d>y</d></c></a>`)
	got := RenderInline(doc.Root)
	want := `a(b:"x", c(d:"y"))`
	if got != want {
		t.Errorf("RenderInline = %q, want %q", got, want)
	}
}
