package xmltree

import (
	"testing"
)

// FuzzParse checks that whatever Parse accepts, WriteXML emits in a form
// Parse accepts again with the same structure — and that rejection never
// panics. Runs its seed corpus under plain `go test`; `go test -fuzz`
// explores further.
func FuzzParse(f *testing.F) {
	seeds := []string{
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
	}
	for _, s := range append(seeds, strippedToNonNames...) {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, src string) {
		doc, err := ParseString(src, WithMaxNodes(10_000))
		if err != nil {
			return
		}
		out := XMLString(doc.Root)
		doc2, err := ParseString(out)
		if err != nil {
			t.Fatalf("reparse failed: %v\ninput: %q\nserialized: %q", err, src, out)
		}
		// Element structure is preserved (text may merge/trim).
		if a, b := countKind(doc.Root, KindElement), countKind(doc2.Root, KindElement); a != b {
			t.Fatalf("element count %d -> %d\ninput: %q", a, b, src)
		}
	})
}

func countKind(n *Node, k Kind) int {
	c := 0
	n.Walk(func(m *Node) bool {
		if m.Kind == k {
			c++
		}
		return true
	})
	return c
}
