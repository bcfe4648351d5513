package xmltree

import (
	"unicode"
	"unicode/utf8"
)

// RenderHTML renders n's subtree as a nested HTML list with the given
// keywords highlighted (<mark>), for the web demo: element labels as
// <span class="tag">, attribute values inline, text quoted. Keywords are
// matched on whole lowercase tokens, like the query tokenizer. The output
// is fully escaped.
func RenderHTML(n *Node, keywords []string) string {
	return render(func(b []byte) []byte {
		b = append(b, `<ul class="xmltree">`...)
		b = appendHTMLNode(b, n, keywords)
		return append(b, `</ul>`...)
	})
}

func appendHTMLNode(b []byte, n *Node, kw []string) []byte {
	b = append(b, "<li>"...)
	switch {
	case n.IsText():
		b = append(b, '"')
		b = appendHighlighted(b, n.Value, kw)
		b = append(b, '"')
	case n.HasSingleTextChild():
		b = append(b, `<span class="tag">`...)
		b = appendHighlighted(b, n.Label, kw)
		b = append(b, `</span>: "`...)
		b = appendHighlighted(b, n.Children[0].Value, kw)
		b = append(b, '"')
	default:
		b = append(b, `<span class="tag">`...)
		b = appendHighlighted(b, n.Label, kw)
		b = append(b, `</span>`...)
		if len(n.Children) > 0 {
			b = append(b, "<ul>"...)
			for _, c := range n.Children {
				b = appendHTMLNode(b, c, kw)
			}
			b = append(b, "</ul>"...)
		}
	}
	return append(b, "</li>"...)
}

// htmlEscapes holds html.EscapeString's replacement for each byte it
// rewrites.
var htmlEscapes = [utf8.RuneSelf]string{
	'<': "&lt;", '>': "&gt;", '&': "&amp;", '\'': "&#39;", '"': "&#34;",
}

// appendHTMLEscaped appends s as html.EscapeString escapes it; other bytes,
// invalid UTF-8 included, are copied.
func appendHTMLEscaped(b []byte, s string) []byte {
	last := 0
	for i := 0; i < len(s); i++ {
		if c := s[i]; c < utf8.RuneSelf && htmlEscapes[c] != "" {
			b = append(b, s[last:i]...)
			b = append(b, htmlEscapes[c]...)
			last = i + 1
		}
	}
	return append(b, s[last:]...)
}

// appendHighlighted appends s escaped, with keyword tokens wrapped in
// <mark>. Token boundaries follow the index tokenizer: letters and digits
// form tokens. With keywords, s is read rune by rune, so an invalid byte
// (a separator) becomes U+FFFD; without, s is only escaped.
func appendHighlighted(b []byte, s string, kw []string) []byte {
	if len(kw) == 0 {
		return appendHTMLEscaped(b, s)
	}
	tok := -1 // start of the token being read, or -1 between tokens
	for i := 0; i < len(s); {
		r, w := utf8.DecodeRuneInString(s[i:])
		if isTokenRune(r) {
			if tok < 0 {
				tok = i
			}
			i += w
			continue
		}
		if tok >= 0 {
			b = appendToken(b, s[tok:i], kw)
			tok = -1
		}
		switch {
		case w == 1 && r == utf8.RuneError:
			b = append(b, "\uFFFD"...)
		case r < utf8.RuneSelf && htmlEscapes[r] != "":
			b = append(b, htmlEscapes[r]...)
		default:
			b = append(b, s[i:i+w]...)
		}
		i += w
	}
	if tok >= 0 {
		b = appendToken(b, s[tok:], kw)
	}
	return b
}

// appendToken appends a token, marked when it is a keyword. A token is
// letters and digits only, so it needs no escaping.
func appendToken(b []byte, t string, kw []string) []byte {
	for _, k := range kw {
		if lowerEquals(t, k) {
			b = append(b, "<mark>"...)
			b = append(b, t...)
			return append(b, "</mark>"...)
		}
	}
	return append(b, t...)
}

// lowerEquals reports whether strings.ToLower(t) == strings.ToLower(k)
// without building either: both are compared rune by rune through
// unicode.ToLower (ASCII byte by byte), an invalid byte reading as U+FFFD
// as ToLower writes it.
func lowerEquals(t, k string) bool {
	for t != "" && k != "" {
		if a, b := t[0], k[0]; a|b < utf8.RuneSelf {
			if lowerASCII(a) != lowerASCII(b) {
				return false
			}
			t, k = t[1:], k[1:]
			continue
		}
		r, w := utf8.DecodeRuneInString(t)
		q, v := utf8.DecodeRuneInString(k)
		if unicode.ToLower(r) != unicode.ToLower(q) {
			return false
		}
		t, k = t[w:], k[v:]
	}
	return t == "" && k == ""
}

func lowerASCII(c byte) byte {
	if 'A' <= c && c <= 'Z' {
		return c + 'a' - 'A'
	}
	return c
}

// isTokenRune mirrors the index tokenizer's token alphabet (letters and
// digits) so highlighting agrees with matching.
func isTokenRune(r rune) bool {
	return unicode.IsLetter(r) || unicode.IsDigit(r)
}
