package xmltree

import (
	"encoding/xml"
	"html"
	"io"
	"strings"
	"unicode"
)

// The renderers as they were before the append core: WriteXML through a
// sticky io.WriteString writer with per-value encoding/xml.EscapeText,
// RenderHTML with a strings.Builder per token, RenderInline and RenderASCII
// over concatenated labels. They are frozen — the reference
// FuzzRenderMatchesReference and TestRenderMatchesReference hold the
// product renderers to byte for byte — and are never edited to agree with
// them.

func oracleWriteXML(w io.Writer, n *Node) error {
	sw := &oracleStickyWriter{w: w}
	oracleWriteNode(sw, n, 0)
	return sw.err
}

func oracleXMLString(n *Node) string {
	var b strings.Builder
	_ = oracleWriteXML(&b, n)
	return b.String()
}

type oracleStickyWriter struct {
	w   io.Writer
	err error
}

func (s *oracleStickyWriter) WriteString(str string) {
	if s.err != nil {
		return
	}
	_, s.err = io.WriteString(s.w, str)
}

func oracleWriteNode(w *oracleStickyWriter, n *Node, depth int) {
	indent := strings.Repeat("  ", depth)
	if n.IsText() {
		w.WriteString(indent)
		w.WriteString(oracleEscapeText(n.Value))
		w.WriteString("\n")
		return
	}

	var attrs []*Node
	var kids []*Node
	for _, c := range n.Children {
		if c.FromAttr && c.HasSingleTextChild() {
			attrs = append(attrs, c)
		} else {
			kids = append(kids, c)
		}
	}

	w.WriteString(indent)
	w.WriteString("<")
	w.WriteString(n.Label)
	for _, a := range attrs {
		w.WriteString(" ")
		w.WriteString(a.Label)
		w.WriteString(`="`)
		w.WriteString(oracleEscapeText(a.TextValue()))
		w.WriteString(`"`)
	}
	if len(kids) == 0 {
		w.WriteString("/>\n")
		return
	}
	if len(kids) == 1 && kids[0].IsText() {
		w.WriteString(">")
		w.WriteString(oracleEscapeText(kids[0].Value))
		w.WriteString("</")
		w.WriteString(n.Label)
		w.WriteString(">\n")
		return
	}
	w.WriteString(">\n")
	for _, c := range kids {
		oracleWriteNode(w, c, depth+1)
	}
	w.WriteString(indent)
	w.WriteString("</")
	w.WriteString(n.Label)
	w.WriteString(">\n")
}

func oracleEscapeText(s string) string {
	var b strings.Builder
	_ = xml.EscapeText(&b, []byte(s))
	return b.String()
}

func oracleRenderHTML(n *Node, keywords []string) string {
	kw := make(map[string]bool, len(keywords))
	for _, k := range keywords {
		kw[strings.ToLower(k)] = true
	}
	var b strings.Builder
	b.WriteString(`<ul class="xmltree">`)
	oracleRenderHTMLNode(&b, n, kw)
	b.WriteString(`</ul>`)
	return b.String()
}

func oracleRenderHTMLNode(b *strings.Builder, n *Node, kw map[string]bool) {
	b.WriteString("<li>")
	switch {
	case n.IsText():
		b.WriteString(`"`)
		b.WriteString(oracleHighlight(n.Value, kw))
		b.WriteString(`"`)
	case n.HasSingleTextChild():
		b.WriteString(`<span class="tag">`)
		b.WriteString(oracleHighlight(n.Label, kw))
		b.WriteString(`</span>: "`)
		b.WriteString(oracleHighlight(n.Children[0].Value, kw))
		b.WriteString(`"`)
	default:
		b.WriteString(`<span class="tag">`)
		b.WriteString(oracleHighlight(n.Label, kw))
		b.WriteString(`</span>`)
		if len(n.Children) > 0 {
			b.WriteString("<ul>")
			for _, c := range n.Children {
				oracleRenderHTMLNode(b, c, kw)
			}
			b.WriteString("</ul>")
		}
	}
	b.WriteString("</li>")
}

func oracleHighlight(s string, kw map[string]bool) string {
	if len(kw) == 0 {
		return html.EscapeString(s)
	}
	var b strings.Builder
	var tok strings.Builder
	flush := func() {
		if tok.Len() == 0 {
			return
		}
		t := tok.String()
		if kw[strings.ToLower(t)] {
			b.WriteString("<mark>")
			b.WriteString(html.EscapeString(t))
			b.WriteString("</mark>")
		} else {
			b.WriteString(html.EscapeString(t))
		}
		tok.Reset()
	}
	for _, r := range s {
		if unicode.IsLetter(r) || unicode.IsDigit(r) {
			tok.WriteRune(r)
		} else {
			flush()
			b.WriteString(html.EscapeString(string(r)))
		}
	}
	flush()
	return b.String()
}

func oracleRenderASCII(n *Node) string {
	var b strings.Builder
	oracleRenderASCIINode(&b, n, "", true, true)
	return b.String()
}

func oracleRenderASCIINode(b *strings.Builder, n *Node, prefix string, isLast, isRoot bool) {
	if !isRoot {
		b.WriteString(prefix)
		if isLast {
			b.WriteString("└─ ")
		} else {
			b.WriteString("├─ ")
		}
	}
	b.WriteString(oracleNodeLabel(n))
	b.WriteString("\n")

	kids := oracleRenderKids(n)
	childPrefix := prefix
	if !isRoot {
		if isLast {
			childPrefix += "   "
		} else {
			childPrefix += "│  "
		}
	}
	for i, c := range kids {
		oracleRenderASCIINode(b, c, childPrefix, i == len(kids)-1, false)
	}
}

func oracleRenderInline(n *Node) string {
	var b strings.Builder
	oracleRenderInlineNode(&b, n)
	return b.String()
}

func oracleRenderInlineNode(b *strings.Builder, n *Node) {
	b.WriteString(oracleNodeLabel(n))
	kids := oracleRenderKids(n)
	if len(kids) == 0 {
		return
	}
	b.WriteString("(")
	for i, c := range kids {
		if i > 0 {
			b.WriteString(", ")
		}
		oracleRenderInlineNode(b, c)
	}
	b.WriteString(")")
}

func oracleNodeLabel(n *Node) string {
	if n.IsText() {
		return `"` + n.Value + `"`
	}
	if n.HasSingleTextChild() {
		return n.Label + `:"` + n.Children[0].Value + `"`
	}
	return n.Label
}

func oracleRenderKids(n *Node) []*Node {
	if n.HasSingleTextChild() {
		return nil
	}
	return n.Children
}
