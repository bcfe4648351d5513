package xmltree

import (
	"io"
	"sync"
	"unicode/utf8"
)

// WriteXML serializes n's subtree as indented XML. Attribute-shaped element
// children marked FromAttr are emitted as real XML attributes of their
// parent; everything else round-trips structurally through Parse. The XML
// reaches w in writes of about flushAt bytes, so a document's XML is never
// held whole; the first write error stops the output and is returned.
func WriteXML(w io.Writer, n *Node) error {
	p := getBuf()
	f := &flusher{w: w}
	b := f.spill(appendNode(p.out, n, 0, f), true)
	p.put(b, p.scratch)
	return f.err
}

// XMLString returns the serialized form of n's subtree.
func XMLString(n *Node) string {
	return render(func(b []byte) []byte { return AppendXML(b, n) })
}

// AppendXML appends the serialized form of n's subtree (what WriteXML
// writes) to dst and returns the extended buffer.
func AppendXML(dst []byte, n *Node) []byte {
	return appendNode(dst, n, 0, nil)
}

// appendNode is the one serializer: a node's children are walked twice,
// attribute-shaped ones first as attributes, then the content. f, when
// non-nil, is handed the buffer at every line end.
func appendNode(dst []byte, n *Node, depth int, f *flusher) []byte {
	dst = appendIndent(dst, depth)
	if n.IsText() {
		dst = appendEscaped(dst, n.Value)
		return f.spill(append(dst, '\n'), false)
	}
	dst = append(dst, '<')
	dst = append(dst, n.Label...)
	var first *Node
	kids := 0
	for _, c := range n.Children {
		if !isAttr(c) {
			if kids == 0 {
				first = c
			}
			kids++
			continue
		}
		dst = append(dst, ' ')
		dst = append(dst, c.Label...)
		dst = append(dst, `="`...)
		dst = appendEscaped(dst, c.Children[0].Value)
		dst = append(dst, '"')
	}
	switch {
	case kids == 0:
		dst = append(dst, "/>\n"...)
	case kids == 1 && first.IsText():
		// Inline a single text child for compactness.
		dst = append(dst, '>')
		dst = appendEscaped(dst, first.Value)
		dst = appendClose(dst, n.Label)
	default:
		dst = f.spill(append(dst, ">\n"...), false)
		for _, c := range n.Children {
			if f.failed() {
				return dst
			}
			if !isAttr(c) {
				dst = appendNode(dst, c, depth+1, f)
			}
		}
		dst = appendIndent(dst, depth)
		dst = appendClose(dst, n.Label)
	}
	return f.spill(dst, false)
}

// isAttr reports whether c is serialized as an attribute of its parent.
func isAttr(c *Node) bool { return c.FromAttr && c.HasSingleTextChild() }

func appendClose(dst []byte, label string) []byte {
	dst = append(dst, "</"...)
	dst = append(dst, label...)
	return append(dst, ">\n"...)
}

// indent is sliced for indentation, two spaces a level; deeper nesting
// appends it more than once.
const indent = "                                                                "

func appendIndent(dst []byte, depth int) []byte {
	for w := 2 * depth; w > 0; w -= len(indent) {
		dst = append(dst, indent[:min(w, len(indent))]...)
	}
	return dst
}

// xmlEscapes holds encoding/xml.EscapeText's replacement for every ASCII
// byte it rewrites: the eight escapes, and U+FFFD for the other C0 controls
// (outside the XML Char range). The other ASCII bytes are copied.
var xmlEscapes = func() (t [utf8.RuneSelf]string) {
	for c := range 0x20 {
		t[c] = "\uFFFD"
	}
	t['"'], t['\''], t['&'], t['<'], t['>'] = "&#34;", "&#39;", "&amp;", "&lt;", "&gt;"
	t['\t'], t['\n'], t['\r'] = "&#x9;", "&#xA;", "&#xD;"
	return t
}()

// appendEscaped appends s escaped byte for byte as encoding/xml.EscapeText
// escapes it. Runs that need nothing are copied whole; an invalid byte and
// a rune outside the XML Char range (U+FFFE, U+FFFF) become U+FFFD, and a
// correctly encoded U+FFFD is kept.
func appendEscaped(dst []byte, s string) []byte {
	last := 0
	for i := 0; i < len(s); {
		esc := "\uFFFD"
		width := 1
		if c := s[i]; c < utf8.RuneSelf {
			if esc = xmlEscapes[c]; esc == "" {
				i++
				continue
			}
		} else {
			var r rune
			r, width = utf8.DecodeRuneInString(s[i:])
			if width > 1 && r != 0xFFFE && r != 0xFFFF {
				i += width
				continue
			}
		}
		dst = append(dst, s[last:i]...)
		dst = append(dst, esc...)
		i += width
		last = i
	}
	return append(dst, s[last:]...)
}

// flushAt is the buffered size at which WriteXML writes its buffer out.
const flushAt = 32 << 10

// flusher streams a serialization to w. A nil flusher keeps everything in
// the buffer (AppendXML).
type flusher struct {
	w   io.Writer
	err error
}

// spill writes b out once it holds flushAt bytes, or whatever it holds when
// final is set, and returns the buffer to append to next. After the first
// write error nothing more is written.
func (f *flusher) spill(b []byte, final bool) []byte {
	if f == nil || len(b) < flushAt && !final {
		return b
	}
	if f.err == nil && len(b) > 0 {
		_, f.err = f.w.Write(b)
	}
	return b[:0]
}

func (f *flusher) failed() bool { return f != nil && f.err != nil }

// renderBufs holds the renderers' append buffers between calls, so a
// rendering allocates its result string and, once the buffers have grown
// to the outputs rendered, nothing else.
var renderBufs = sync.Pool{New: func() any { return new(renderBuf) }}

// renderBuf is a renderer's output buffer and, for RenderASCII's line
// prefix, a scratch one.
type renderBuf struct{ out, scratch []byte }

// maxPooled bounds the buffers kept for reuse, so a whole document rendered
// as one string does not stay resident.
const maxPooled = 1 << 20

// getBuf returns a pooled renderBuf whose buffers are empty.
func getBuf() *renderBuf { return renderBufs.Get().(*renderBuf) }

// render returns what fill appends to an empty pooled buffer.
func render(fill func([]byte) []byte) string {
	p := getBuf()
	b := fill(p.out)
	s := string(b)
	p.put(b, p.scratch)
	return s
}

// put returns p to the pool with out and scratch, the buffers as the
// rendering grew them, unless they grew past maxPooled.
func (p *renderBuf) put(out, scratch []byte) {
	if cap(out) <= maxPooled {
		p.out = out[:0]
	}
	if cap(scratch) <= maxPooled {
		p.scratch = scratch[:0]
	}
	renderBufs.Put(p)
}
