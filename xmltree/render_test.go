package xmltree

import (
	"bytes"
	"errors"
	"fmt"
	"strings"
	"testing"
	"unicode"
)

// renderMismatch renders n with every renderer and its frozen reference
// (render_oracle_test.go), and describes the first pair that differs; ""
// when all agree byte for byte.
func renderMismatch(n *Node, keywords []string) string {
	var got, want bytes.Buffer
	gotErr, wantErr := WriteXML(&got, n), oracleWriteXML(&want, n)
	pairs := []struct{ name, got, want string }{
		{"XMLString", XMLString(n), oracleXMLString(n)},
		{"WriteXML", fmt.Sprint(got.String(), gotErr), fmt.Sprint(want.String(), wantErr)},
		{"RenderInline", RenderInline(n), oracleRenderInline(n)},
		{"RenderASCII", RenderASCII(n), oracleRenderASCII(n)},
		{"RenderHTML", RenderHTML(n, keywords), oracleRenderHTML(n, keywords)},
		{"RenderHTML without keywords", RenderHTML(n, nil), oracleRenderHTML(n, nil)},
	}
	for _, p := range pairs {
		if p.got != p.want {
			return fmt.Sprintf("%s (keywords %q):\n got %q\nwant %q", p.name, keywords, p.got, p.want)
		}
	}
	return ""
}

// mixedCaseKeywords takes up to four of s's tokens, spread over it, in
// alternating case, and a raw prefix of s that may be no token at all.
func mixedCaseKeywords(s string) []string {
	toks := strings.FieldsFunc(s, func(r rune) bool { return !unicode.IsLetter(r) && !unicode.IsDigit(r) })
	var kws []string
	for i := 0; i < len(toks) && len(kws) < 4; i += 1 + len(toks)/4 {
		rs := []rune(toks[i])
		for j := range rs {
			if (i+j)%2 == 0 {
				rs[j] = unicode.ToUpper(rs[j])
			} else {
				rs[j] = unicode.ToLower(rs[j])
			}
		}
		kws = append(kws, string(rs))
	}
	return append(kws, s[:min(len(s), 3)])
}

// markAttrs sets FromAttr on the attribute-shaped elements below root whose
// bit in marks (by preorder position) is set, and clears it on the others.
func markAttrs(root *Node, marks uint64) {
	i := 0
	root.Walk(func(n *Node) bool {
		if n != root && n.HasSingleTextChild() {
			n.FromAttr = marks>>(i%64)&1 == 1
		}
		i++
		return true
	})
}

// rawTree puts s where the parser would never let it: a label, an
// attribute value, an inlined text and a text among elements.
func rawTree(s string) *Node {
	a := Attr("k", s)
	a.FromAttr = true
	return NewDocument(Elem("r", a, Elem("v", Txt(s)), Txt(s), Elem(s, Txt(s), Elem("w")))).Root
}

// FuzzRenderMatchesReference holds every renderer to its frozen reference
// on whatever parses, with random attribute-shaped children serialized as
// attributes, and on the raw input placed in a tree directly, so invalid
// UTF-8 and characters outside the XML Char range reach the escapers.
func FuzzRenderMatchesReference(f *testing.F) {
	deep := strings.Repeat("<d>", 2+len(indent)) + "x" + strings.Repeat("</d>", 2+len(indent))
	seeds := []string{
		// Invalid UTF-8 and C0 controls.
		"<a>\xff\xfe</a>", "a\xffb\x80c\xc3", "\x00\x01\x08\x0b\x0c\x1f\x7f", "<a k=\"v\">x\x01y</a>",
		// The eight escapes.
		`"'&<>` + "\t\n\r", `<a k="&quot;&apos;&amp;&lt;&gt;&#9;&#10;&#13;">"'&amp;&lt;&gt;&#9;&#10;&#13;</a>`,
		// U+FFFD encoded, and as a stray byte.
		"<a>\uFFFD</a>", "x\uFFFDy\xffz \uFFFD\xef\xbf",
		// U+FFFE and U+FFFF.
		"\uFFFE", "<a>&#xFFFD;</a>", "tok\uFFFEtok\uFFFF",
		// Encoded surrogates.
		"\xed\xa0\x80", "ab\xed\xbf\xbfcd",
		// Nesting deeper than the indent constant.
		deep,
		// Keywords that lower-case across byte lengths.
		"<a><b>Houston TEXAS houston</b><c k=\"Texan\">x</c></a>", "İstanbul Kelvin KELVIN ǅemal",
		`<a><b/>text<c>1 2</c><d><e>f</e></d></a>`,
	}
	for i, s := range seeds {
		f.Add(s, uint64(0x5555_5555_5555_5555)<<(i%2))
	}
	f.Fuzz(func(t *testing.T, src string, marks uint64) {
		kws := mixedCaseKeywords(src)
		if doc, err := ParseString(src, WithMaxNodes(500)); err == nil {
			markAttrs(doc.Root, marks)
			doc.Root.Walk(func(n *Node) bool {
				if msg := renderMismatch(n, kws); msg != "" {
					t.Fatalf("input %q: %s", src, msg)
				}
				return true
			})
		}
		raw := rawTree(src)
		markAttrs(raw, marks)
		if msg := renderMismatch(raw, kws); msg != "" {
			t.Fatalf("raw input %q: %s", src, msg)
		}
	})
}

// TestRenderAllocations states the renderers' cost model: a rendering
// allocates its result string, and its pooled buffers nothing once they
// have grown, so a 7-node and a 4 000-node tree of the same shape cost the
// same small constant.
func TestRenderAllocations(t *testing.T) {
	tree := func(stores int) *Node {
		root := Elem("stores")
		for i := range stores {
			attr := Attr("city", "Houston & Austin")
			if i%2 == 1 {
				attr = Attr("name", "Levis <Texas>")
				attr.FromAttr = true
			}
			Append(root, Elem("store", attr))
		}
		return NewDocument(root).Root
	}
	kws := []string{"houston", "Texas", "STORE"}
	renderers := []struct {
		name   string
		render func(*Node) string
	}{
		{"XMLString", XMLString},
		{"RenderHTML", func(n *Node) string { return RenderHTML(n, kws) }},
		{"RenderInline", RenderInline},
		{"RenderASCII", RenderASCII},
	}
	small, large := tree(2), tree(1333)
	if a, b := countKind(small, KindElement)+countKind(small, KindText), countKind(large, KindElement)+countKind(large, KindText); a != 7 || b != 4000 {
		t.Fatalf("fixtures have %d and %d nodes", a, b)
	}
	for _, r := range renderers {
		s := testing.AllocsPerRun(100, func() { r.render(small) })
		l := testing.AllocsPerRun(100, func() { r.render(large) })
		if raceDetector {
			continue // sync.Pool drops entries at random under the detector
		}
		if s != l || s > 1 {
			t.Errorf("%s: %v allocations for 7 nodes, %v for 4 000; want 1 for both", r.name, s, l)
		}
	}
}

// largestWrite records the size of every Write; after budget bytes it
// fails, and counts the writes it is asked for after that.
type largestWrite struct {
	out      bytes.Buffer
	largest  int
	budget   int
	failed   bool
	afterErr int
}

var errFull = errors.New("writer full")

func (w *largestWrite) Write(p []byte) (int, error) {
	if w.failed {
		w.afterErr++
		return 0, errFull
	}
	w.largest = max(w.largest, len(p))
	if w.budget > 0 && w.out.Len()+len(p) > w.budget {
		w.failed = true
		n := w.budget - w.out.Len()
		w.out.Write(p[:n])
		return n, errFull
	}
	return w.out.Write(p)
}

// TestWriteXMLStreams pins that WriteXML never holds a document's XML:
// it writes about flushAt bytes at a time, and stops at the first error,
// returning it.
func TestWriteXMLStreams(t *testing.T) {
	root := Elem("items")
	for i := range 6000 {
		id := Attr("id", fmt.Sprint(i))
		id.FromAttr = true
		Append(root, Elem("item", id, Attr("name", "item & co"), Elem("tags", Txt("a"), Elem("tag"))))
	}
	doc := NewDocument(root)
	want := XMLString(doc.Root)
	if len(want) < 8*flushAt {
		t.Fatalf("fixture is %d bytes, want at least %d", len(want), 8*flushAt)
	}
	longestLine := 0
	for _, line := range strings.SplitAfter(want, "\n") {
		longestLine = max(longestLine, len(line))
	}

	var w largestWrite
	if err := WriteXML(&w, doc.Root); err != nil {
		t.Fatal(err)
	}
	if w.out.String() != want {
		t.Fatal("WriteXML differs from XMLString")
	}
	if w.largest > flushAt+longestLine {
		t.Errorf("largest write %d bytes, want at most %d", w.largest, flushAt+longestLine)
	}

	for _, budget := range []int{1, flushAt - 1, flushAt + 1, 3*flushAt + 7} {
		w := largestWrite{budget: budget}
		err := WriteXML(&w, doc.Root)
		if !errors.Is(err, errFull) {
			t.Fatalf("budget %d: error %v, want %v", budget, err, errFull)
		}
		if w.afterErr != 0 {
			t.Errorf("budget %d: %d writes after the first error", budget, w.afterErr)
		}
		if !strings.HasPrefix(want, w.out.String()) || w.out.Len() != budget {
			t.Errorf("budget %d: wrote %d bytes, not a prefix of the XML that fills it", budget, w.out.Len())
		}
	}
}
