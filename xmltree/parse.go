package xmltree

// Parsing is one scanner over the input bytes that builds the finalized
// document directly. It accepts exactly what encoding/xml's strict Decoder
// accepts — UTF-8 and the XML character range in text and attribute
// values, names, matched tags, the five predefined entities and character
// references, "\r\n" folding, comments, processing instructions (the xml
// declaration's version and encoding checks included), CDATA and DOCTYPE —
// and checks it inline, in document order. A start tag is read whole
// before its element is counted against WithMaxNodes, as the decoder's
// token loop did, so a document is refused for the same reason either way.
// The frozen token loop this replaced lives on in oracle_test.go as the
// reference the scanner is fuzzed against.
//
// Cost model: per input byte one class-table check, and at most one copy
// (into its node's own value string); per node one slab slot; per distinct
// raw name one intern (names carrying non-ASCII runes are checked by asking
// encoding/xml, once each); per text node one symbol probe in the final
// preorder pass that assigns value ids after adjacent text has merged.
//
// Retention rule: nothing the scanner allocates — node chunk, child-pointer
// chunk, value bytes — is shared between two top-level entities (children
// of the root). Shard building moves entities into shard documents, so a
// chunk spanning two entities would let one shard pin another's entities,
// and through Parent/Children the whole parse. A segment parse (split.go)
// runs a scanner of its own, sharing nothing with any other.

import (
	"bytes"
	"encoding/xml"
	"errors"
	"fmt"
	"io"
	"os"
	"strings"
	"unicode/utf8"
)

// ParseOption configures Parse.
type ParseOption func(*parseConfig)

type parseConfig struct {
	maxNodes int
}

// WithMaxNodes bounds the number of nodes Parse will materialize; parsing a
// larger document fails with ErrTooLarge. Zero (the default) means no bound.
func WithMaxNodes(n int) ParseOption {
	return func(c *parseConfig) { c.maxNodes = n }
}

// ErrTooLarge reports that a document exceeded the WithMaxNodes bound.
var ErrTooLarge = errors.New("xmltree: document exceeds node limit")

// ErrEmpty reports that the input contained no root element.
var ErrEmpty = errors.New("xmltree: no root element")

// Parse reads an XML document from r and returns its finalized Document.
// XML attributes become attribute-shaped element children, namespace
// prefixes are stripped (end tags still match on the prefixed name), text
// is space-trimmed and whitespace-only text dropped, and adjacent text runs
// (split by CDATA, comments or processing instructions) merge with one
// space. Comments, processing instructions and directives are otherwise
// ignored; a DOCTYPE's internal subset is kept in InternalSubset.
func Parse(r io.Reader, opts ...ParseOption) (*Document, error) {
	data, err := io.ReadAll(r)
	if err != nil {
		return nil, fmt.Errorf("xmltree: parse: %w", err)
	}
	return ParseBytes(data, opts...)
}

// ParseString parses a document from a string.
func ParseString(s string, opts ...ParseOption) (*Document, error) {
	return ParseBytes([]byte(s), opts...)
}

// ParseFile parses a document from a file on disk, read in one sized read.
func ParseFile(path string, opts ...ParseOption) (*Document, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	return ParseBytes(data, opts...)
}

// ParseBytes parses a document from data, which it neither modifies nor
// retains: every label and value of the result is a copy.
func ParseBytes(data []byte, opts ...ParseOption) (*Document, error) {
	var cfg parseConfig
	for _, o := range opts {
		o(&cfg)
	}
	s := scanner{
		src:      data,
		maxNodes: cfg.maxNodes,
		nodes:    make([]*Node, 0, len(data)/32+1),
		names:    make(map[string]*qname),
		syms:     NewSymbols(),
	}
	if err := s.document(); err != nil {
		return nil, err
	}
	for _, n := range s.nodes {
		if n.Kind == KindText {
			s.syms.Assign(n)
		}
	}
	doc := AdoptFinalized(s.nodes)
	doc.InternalSubset = s.internal
	return doc, nil
}

const (
	// slabChunk bounds one node chunk: 192 × 104 B stays inside the
	// allocator's small size classes (remote's slabChunk has the measurement).
	slabChunk = 192
	// arenaChunk bounds one chunk of Children pointers the same way.
	arenaChunk = 1024
	// minChunk is the first chunk of an entity with no predecessor to size by.
	minChunk = 8
)

// qname is one distinct raw name of the input, checked once.
type qname struct {
	raw      string // as written, prefix included: end tags match on it
	label    string // the prefix stripped
	badLocal bool   // prefixed, and the local part alone is not a name
	xmlns    bool   // as an attribute, a namespace declaration: dropped
	sym      int32  // label symbol id, -1 until an element carries it
}

type openElem struct {
	n    *Node
	name *qname
	kids int // where n's children start in scanner.kids
}

type attrVal struct {
	name  *qname
	value string
}

type scanner struct {
	src []byte
	pos int

	maxNodes, count int

	nodes []*Node // preorder
	root  *Node
	open  []openElem
	kids  []*Node // children of the open elements, innermost last

	// The current top-level entity's chunks (see the retention rule).
	slab        []Node
	arena       []*Node
	slabNext    int // size of the entity's next node chunk
	arenaNext   int
	entityStart int // len(nodes) when the current entity began

	names    map[string]*qname
	syms     *Symbols
	attrs    []attrVal
	buf      []byte // decoded text scratch
	internal string

	// split, set by SplitBytes, passes over the children of the root and
	// records their extents in segs — or, over a run it lands on the start
	// of, the segments of its next jump, which jumped records; segment, set
	// by Split.Parse, stops once its child of the root has closed (see
	// split.go).
	split   bool
	segs    []Segment
	jumps   []Jump
	jumped  []Jump
	segment bool
}

// document scans the whole input — a segment parse, up to the end of its
// child of the root.
func (s *scanner) document() error {
	for s.pos < len(s.src) {
		if len(s.jumps) > 0 && s.pos >= s.jumps[0].Start {
			s.jump()
			continue
		}
		if s.src[s.pos] != '<' {
			if err := s.charData(); err != nil {
				return err
			}
			continue
		}
		s.pos++
		if s.pos == len(s.src) {
			return s.eof()
		}
		var err error
		switch s.src[s.pos] {
		case '/':
			err = s.endTag()
		case '?':
			err = s.procInst()
		case '!':
			err = s.bang()
		default:
			if s.split && len(s.open) == 1 {
				err = s.skipChild()
			} else {
				err = s.startTag()
			}
		}
		if err != nil {
			return err
		}
		if s.segment && len(s.open) == 1 {
			return nil
		}
	}
	if len(s.open) > 0 {
		return s.eof()
	}
	if s.root == nil {
		return ErrEmpty
	}
	return nil
}

func (s *scanner) syntax(msg string) error {
	line := 1 + bytes.Count(s.src[:s.pos], []byte{'\n'})
	return fmt.Errorf("xmltree: parse: %w", &xml.SyntaxError{Msg: msg, Line: line})
}

func (s *scanner) eof() error {
	s.pos = len(s.src)
	return s.syntax("unexpected EOF")
}

// next returns the byte at pos, where the end of input is an error.
func (s *scanner) next() (byte, error) {
	if s.pos == len(s.src) {
		return 0, s.eof()
	}
	return s.src[s.pos], nil
}

// expect consumes lit, which must come next.
func (s *scanner) expect(lit, msg string) error {
	for i := 0; i < len(lit); i++ {
		c, err := s.next()
		if err != nil {
			return err
		}
		if c != lit[i] {
			return s.syntax(msg)
		}
		s.pos++
	}
	return nil
}

// space skips XML white space.
func (s *scanner) space() {
	for s.pos < len(s.src) {
		switch s.src[s.pos] {
		case ' ', '\r', '\n', '\t':
			s.pos++
		default:
			return
		}
	}
}

// nameBytes reads a name as encoding/xml delimits one: up to the first
// ASCII byte that cannot occur in a name (bytes past ASCII are taken and
// checked with the name). Running into the end of input is an error.
func (s *scanner) nameBytes(missing string) ([]byte, error) {
	start := s.pos
	for s.pos < len(s.src) && nameByte[s.src[s.pos]] {
		s.pos++
	}
	if s.pos == len(s.src) {
		return nil, s.eof()
	}
	if s.pos == start {
		return nil, s.syntax(missing)
	}
	return s.src[start:s.pos], nil
}

// name reads an element or attribute name, interning it on first sight.
func (s *scanner) name(missing string) (*qname, error) {
	raw, err := s.nameBytes(missing)
	if err != nil {
		return nil, err
	}
	if q := s.names[string(raw)]; q != nil {
		return q, nil
	}
	key := string(raw)
	if strings.Count(key, ":") > 1 || !isName(key) {
		return nil, s.syntax("invalid XML name: " + key)
	}
	q := &qname{raw: key, label: key, sym: -1, xmlns: key == "xmlns"}
	if prefix, local, ok := strings.Cut(key, ":"); ok && prefix != "" && local != "" {
		q.label = local
		q.badLocal = !startsName(local)
		q.xmlns = prefix == "xmlns" || local == "xmlns"
	}
	s.names[key] = q
	return q, nil
}

// startTag reads a start tag whole — name, every attribute, the closing
// "/>" or ">" — and only then builds its element.
func (s *scanner) startTag() error {
	q, err := s.name("expected element name after <")
	if err != nil {
		return err
	}
	attrs := s.attrs[:0]
	empty := false
	for {
		s.space()
		c, err := s.next()
		if err != nil {
			return err
		}
		if c == '>' {
			s.pos++
			break
		}
		if c == '/' {
			s.pos++
			if err := s.expect(">", "expected /> in element"); err != nil {
				return err
			}
			empty = true
			break
		}
		a, err := s.name("expected attribute name in element")
		if err != nil {
			return err
		}
		s.space()
		if err := s.expect("=", "attribute name without = in element"); err != nil {
			return err
		}
		s.space()
		quote, err := s.next()
		if err != nil {
			return err
		}
		if quote != '"' && quote != '\'' {
			return s.syntax("unquoted or missing attribute value in element")
		}
		s.pos++
		v, err := s.text(quote)
		if err != nil {
			return err
		}
		if !a.xmlns {
			attrs = append(attrs, attrVal{a, string(v)})
		}
	}
	s.attrs = attrs
	return s.element(q, attrs, empty)
}

func stripErr(q *qname) error {
	return fmt.Errorf("xmltree: parse: stripping the namespace of %s leaves %q, which is not a valid XML name", q.raw, q.label)
}

// counted charges one node against the WithMaxNodes bound.
func (s *scanner) counted() error {
	s.count++
	if s.maxNodes > 0 && s.count > s.maxNodes {
		return ErrTooLarge
	}
	return nil
}

// element builds a scanned start tag's element and its attribute children.
func (s *scanner) element(q *qname, attrs []attrVal, empty bool) error {
	if s.split && len(attrs) > 0 {
		return errNoSplit // the root's attributes are children of it
	}
	if q.badLocal {
		return stripErr(q)
	}
	if err := s.counted(); err != nil {
		return err
	}
	var n *Node
	if len(s.open) == 0 {
		if s.root != nil {
			return fmt.Errorf("xmltree: multiple root elements")
		}
		n = &Node{}
		s.root = n
		s.place(n)
		s.entityStart = len(s.nodes)
	} else {
		n = s.node(s.open[len(s.open)-1].n)
		s.kids = append(s.kids, n)
	}
	n.Label, n.Sym = q.label, s.labelSym(q)
	s.open = append(s.open, openElem{n: n, name: q, kids: len(s.kids)})
	for _, a := range attrs {
		if a.name.badLocal {
			return stripErr(a.name)
		}
		if err := s.counted(); err != nil {
			return err
		}
		an := s.node(n)
		an.Label, an.Sym, an.FromAttr = a.name.label, s.labelSym(a.name), true
		if err := s.counted(); err != nil {
			return err
		}
		t := s.node(an)
		t.Kind, t.Value, t.FromAttr = KindText, a.value, true
		an.Children = s.carve(1)
		an.Children[0] = t
		an.End = t.Start
		s.kids = append(s.kids, an)
	}
	if empty {
		s.close()
	}
	return nil
}

func (s *scanner) labelSym(q *qname) int32 {
	if q.sym < 0 {
		id, ok := s.syms.labels[q.label]
		if !ok {
			id = int32(len(s.syms.labels))
			s.syms.labels[q.label] = id
		}
		q.sym = id
	}
	return q.sym
}

// place gives n the next preorder position.
func (s *scanner) place(n *Node) {
	n.Ord = len(s.nodes)
	n.Start, n.End = int32(n.Ord), int32(n.Ord)
	s.nodes = append(s.nodes, n)
}

// node hands out the next node under parent. A child of the root begins a
// top-level entity, which gets chunks of its own, the first sized by the
// entity before it.
func (s *scanner) node(parent *Node) *Node {
	if parent == s.root {
		prev := min(max(len(s.nodes)-s.entityStart, minChunk), slabChunk)
		s.slab, s.slabNext = nil, prev
		s.arena, s.arenaNext = nil, prev
		s.entityStart = len(s.nodes)
	}
	if len(s.slab) == 0 {
		s.slab = make([]Node, s.slabNext)
		s.slabNext = min(2*s.slabNext, slabChunk)
	}
	n := &s.slab[0]
	s.slab = s.slab[1:]
	n.Parent = parent
	s.place(n)
	return n
}

// carve hands out a Children slice of k pointers from the entity's arena.
func (s *scanner) carve(k int) []*Node {
	if k > len(s.arena) {
		if k > arenaChunk/2 {
			return make([]*Node, k)
		}
		s.arena = make([]*Node, max(s.arenaNext, k))
		s.arenaNext = min(2*s.arenaNext, arenaChunk)
	}
	c := s.arena[:k:k]
	s.arena = s.arena[k:]
	return c
}

// close ends the innermost open element: its Children are carved and its
// interval closed.
func (s *scanner) close() {
	top := s.open[len(s.open)-1]
	s.open = s.open[:len(s.open)-1]
	n := top.n
	if k := len(s.kids) - top.kids; k > 0 {
		var c []*Node
		if n == s.root {
			c = make([]*Node, k) // shared by no entity
		} else {
			c = s.carve(k)
		}
		copy(c, s.kids[top.kids:])
		s.kids = s.kids[:top.kids]
		n.Children = c
	}
	n.End = int32(len(s.nodes) - 1)
}

func (s *scanner) endTag() error {
	s.pos++ // '/'
	raw, err := s.nameBytes("expected element name after </")
	if err != nil {
		return err
	}
	s.space()
	if err := s.expect(">", "invalid characters between an end tag's name and >"); err != nil {
		return err
	}
	if len(s.open) == 0 {
		return s.syntax("unexpected end element </" + string(raw) + ">")
	}
	// An equal raw name is a valid one: the start tag's was checked.
	if top := s.open[len(s.open)-1].name; string(raw) != top.raw {
		return s.syntax("element <" + top.raw + "> closed by </" + string(raw) + ">")
	}
	s.close()
	return nil
}

// charData reads a run of character data up to the next '<'; outside the
// root it is checked and dropped.
func (s *scanner) charData() error {
	v, err := s.text(0)
	if err != nil || len(s.open) == 0 {
		return err
	}
	if s.split && len(bytes.TrimSpace(v)) > 0 {
		return errNoSplit // text among the root's children
	}
	return s.addText(v)
}

// addText appends trimmed text to the innermost open element, merging it
// into a text node that is already that element's last child.
func (s *scanner) addText(v []byte) error {
	if v = bytes.TrimSpace(v); len(v) == 0 {
		return nil
	}
	top := s.open[len(s.open)-1]
	if k := len(s.kids); k > top.kids && s.kids[k-1].Kind == KindText {
		last := s.kids[k-1]
		last.Value = last.Value + " " + string(v)
		return nil
	}
	if err := s.counted(); err != nil {
		return err
	}
	n := s.node(top.n)
	n.Kind, n.Value = KindText, string(v)
	s.kids = append(s.kids, n)
	return nil
}

// text reads character data — up to '<' or the end of input when quote is
// 0, else an attribute value up to its closing quote — checking it and
// returning it decoded: references resolved, "\r\n" and "\r" folded to
// "\n". The result is a subslice of the input when nothing needed decoding,
// else the scanner's scratch buffer; either is valid until the next call.
func (s *scanner) text(quote byte) ([]byte, error) {
	src := s.src
	start, i := s.pos, s.pos
	// out holds the decoded text up to from once anything needed decoding.
	out, decoded, from := s.buf[:0], false, start
scan:
	for i < len(src) {
		c := src[i]
		if !textStop[c] {
			i++
			continue
		}
		switch {
		case c == '<':
			if quote != 0 {
				s.pos = i
				return nil, s.syntax("unescaped < inside quoted string")
			}
			break scan
		case c == quote && quote != 0:
			break scan
		case c == '&':
			out, decoded = append(out, src[from:i]...), true
			r, n, err := s.reference(i)
			if err != nil {
				return nil, err
			}
			out = utf8.AppendRune(out, r)
			i += n
			from = i
		case c == '\r':
			out, decoded = append(out, src[from:i]...), true
			out = append(out, '\n')
			i++
			if i < len(src) && src[i] == '\n' {
				i++
			}
			from = i
		case c == '>':
			if quote == 0 && i-start >= 2 && src[i-1] == ']' && src[i-2] == ']' {
				s.pos = i
				return nil, s.syntax("unescaped ]]> not in CDATA section")
			}
			i++
		case c == '"' || c == '\'':
			i++
		default:
			n, err := s.char(i)
			if err != nil {
				return nil, err
			}
			i += n
		}
	}
	if quote != 0 {
		if i == len(src) {
			return nil, s.eof()
		}
		s.pos = i + 1
	} else {
		s.pos = i
	}
	if !decoded {
		return src[start:i], nil
	}
	out = append(out, src[from:i]...)
	s.buf = out
	return out, nil
}

// char checks the character at src[i] — a control byte or the first byte
// of a multi-byte rune — and returns its length.
func (s *scanner) char(i int) (int, error) {
	r, n := utf8.DecodeRune(s.src[i:])
	if r == utf8.RuneError && n == 1 {
		s.pos = i
		return 0, s.syntax("invalid UTF-8")
	}
	if !inCharRange(r) {
		s.pos = i
		return 0, s.syntax(fmt.Sprintf("illegal character code %U", r))
	}
	return n, nil
}

// entities are the references every XML parser knows undeclared.
var entities = []struct {
	name string
	r    rune
}{{"lt;", '<'}, {"gt;", '>'}, {"amp;", '&'}, {"apos;", '\''}, {"quot;", '"'}}

// reference resolves the entity or character reference at src[i] == '&',
// returning its rune and its length in the input.
func (s *scanner) reference(i int) (rune, int, error) {
	src := s.src
	j := i + 1
	if j < len(src) && src[j] == '#' {
		j++
		base := 10
		if j < len(src) && src[j] == 'x' {
			base = 16
			j++
		}
		digits, n := j, 0
		for ; j < len(src); j++ {
			d := digitVal(src[j], base)
			if d < 0 {
				break
			}
			if n <= utf8.MaxRune {
				n = n*base + d
			}
		}
		if j == len(src) {
			return 0, 0, s.eof()
		}
		if src[j] == ';' && j > digits && n <= utf8.MaxRune {
			// A surrogate's encoding is U+FFFD, which is in range.
			r := rune(n)
			if !utf8.ValidRune(r) {
				r = utf8.RuneError
			}
			if !inCharRange(r) {
				s.pos = i
				return 0, 0, s.syntax(fmt.Sprintf("illegal character code %U", r))
			}
			return r, j + 1 - i, nil
		}
	} else {
		for _, e := range entities {
			if bytes.HasPrefix(src[j:], []byte(e.name)) {
				return e.r, 1 + len(e.name), nil
			}
		}
	}
	s.pos = i
	return 0, 0, s.syntax("invalid character entity " + string(src[i:min(j+1, len(src))]))
}

func digitVal(c byte, base int) int {
	switch {
	case '0' <= c && c <= '9':
		return int(c - '0')
	case base == 16 && 'a' <= c && c <= 'f':
		return int(c-'a') + 10
	case base == 16 && 'A' <= c && c <= 'F':
		return int(c-'A') + 10
	}
	return -1
}

// inCharRange is the XML Char production.
func inCharRange(r rune) bool {
	return r == 0x09 || r == 0x0A || r == 0x0D ||
		r >= 0x20 && r <= 0xD7FF ||
		r >= 0xE000 && r <= 0xFFFD ||
		r >= 0x10000 && r <= 0x10FFFF
}

// procInst skips a processing instruction; the xml declaration's version
// and encoding are checked by encoding/xml itself (once a document).
func (s *scanner) procInst() error {
	open := s.pos - 1 // the '<'
	s.pos++           // '?'
	target, err := s.nameBytes("expected target name after <?")
	if err != nil {
		return err
	}
	if !isName(string(target)) {
		return s.syntax("invalid XML name: " + string(target))
	}
	s.space()
	end := bytes.Index(s.src[s.pos:], []byte("?>"))
	if end < 0 {
		return s.eof()
	}
	s.pos += end + 2
	if string(target) == "xml" {
		if _, err := xml.NewDecoder(bytes.NewReader(s.src[open:s.pos])).RawToken(); err != nil {
			return fmt.Errorf("xmltree: parse: %w", err)
		}
	}
	return nil
}

// bang reads what follows "<!": a comment, a CDATA section or a directive.
func (s *scanner) bang() error {
	s.pos++ // '!'
	c, err := s.next()
	if err != nil {
		return err
	}
	switch c {
	case '-':
		s.pos++
		if err := s.expect("-", "invalid sequence <!- not part of <!--"); err != nil {
			return err
		}
		end := bytes.Index(s.src[s.pos:], []byte("--"))
		if end < 0 {
			return s.eof()
		}
		s.pos += end + 2
		return s.expect(">", `invalid sequence "--" not allowed in comments`)
	case '[':
		s.pos++
		if err := s.expect("CDATA[", "invalid <![ sequence"); err != nil {
			return err
		}
		v, err := s.cdata()
		if err != nil || len(s.open) == 0 {
			return err
		}
		if s.split {
			return errNoSplit // CDATA among the root's children
		}
		return s.addText(v)
	}
	return s.directive()
}

// cdata reads a CDATA section's content, checked and "\r"-folded like
// text but with no references.
func (s *scanner) cdata() ([]byte, error) {
	end := bytes.Index(s.src[s.pos:], []byte("]]>"))
	if end < 0 {
		s.pos = len(s.src)
		return nil, s.syntax("unexpected EOF in CDATA section")
	}
	src := s.src[:s.pos+end]
	start, i := s.pos, s.pos
	out, decoded := s.buf[:0], false
	for i < len(src) {
		c := src[i]
		switch {
		case c == '\r':
			if !decoded {
				out, decoded = append(out, src[start:i]...), true
			}
			out = append(out, '\n')
			i++
			if i < len(src) && src[i] == '\n' {
				i++
			}
		case c >= 0x20 && c < utf8.RuneSelf || c == '\t' || c == '\n':
			if decoded {
				out = append(out, c)
			}
			i++
		default:
			n, err := s.char(i)
			if err != nil {
				return nil, err
			}
			if decoded {
				out = append(out, src[i:i+n]...)
			}
			i += n
		}
	}
	s.pos = i + len("]]>")
	if !decoded {
		return src[start:i], nil
	}
	s.buf = out
	return out, nil
}

// directive reads a "<!...>" directive the way encoding/xml delimits one —
// quotes hide '>', a nested '<' must be matched, a "<!--" comment inside
// becomes one space — and keeps the first DOCTYPE internal subset found.
func (s *scanner) directive() error {
	if s.split && len(s.open) > 0 {
		return errNoSplit // a directive among the root's children
	}
	src := s.src
	i := s.pos
	buf := []byte{src[i]} // taken literally, whatever it is
	i++
	var inquote byte
	depth := 0
	for {
		if i == len(src) {
			return s.eof()
		}
		b := src[i]
		i++
		if inquote == 0 && b == '>' && depth == 0 {
			break
		}
	handle:
		buf = append(buf, b)
		switch {
		case b == inquote:
			inquote = 0
		case inquote != 0:
		case b == '\'' || b == '"':
			inquote = b
		case b == '>':
			depth--
		case b == '<':
			// Not "<!--": the '<' nests, and the byte that broke the
			// match is handled afresh.
			for k := 0; k < len("!--"); k++ {
				if i == len(src) {
					return s.eof()
				}
				b = src[i]
				i++
				if b != "!--"[k] {
					buf = append(buf, "!--"[:k]...)
					depth++
					goto handle
				}
			}
			buf = buf[:len(buf)-1]
			end := bytes.Index(src[i:], []byte("-->"))
			if end < 0 {
				return s.eof()
			}
			i += end + len("-->")
			buf = append(buf, ' ')
		}
	}
	s.pos = i
	if s.internal == "" {
		s.internal = internalSubset(string(buf))
	}
	return nil
}

// internalSubset extracts the bracketed declaration block of a DOCTYPE
// directive, or "" if there is none.
func internalSubset(directive string) string {
	if !strings.HasPrefix(strings.TrimSpace(directive), "DOCTYPE") {
		return ""
	}
	open := strings.IndexByte(directive, '[')
	if open < 0 {
		return ""
	}
	close := strings.LastIndexByte(directive, ']')
	if close <= open {
		return ""
	}
	return directive[open+1 : close]
}

// nameByte marks the bytes encoding/xml reads as part of a name: the ASCII
// name characters, and every byte past ASCII (checked with the whole name).
var nameByte = func() (t [256]bool) {
	for c := 0; c < 256; c++ {
		t[c] = 'a' <= c && c <= 'z' || 'A' <= c && c <= 'Z' || '0' <= c && c <= '9' ||
			c == '_' || c == ':' || c == '.' || c == '-' || c >= utf8.RuneSelf
	}
	return t
}()

// textStop marks the bytes character data cannot pass over unexamined:
// markup, references, quotes, '\r' (folded), '>' (of "]]>"), control
// characters and bytes past ASCII (decoded and range-checked).
var textStop = func() (t [256]bool) {
	for c := 0; c < 256; c++ {
		t[c] = c < 0x20 && c != '\t' && c != '\n' || c >= utf8.RuneSelf ||
			strings.IndexByte("<&\r>\"'", byte(c)) >= 0
	}
	return t
}()

// isName reports whether s is an XML name. All its bytes are name bytes
// (see nameByte), so in ASCII only the first can be wrong; past ASCII the
// decoder itself is asked, its name tables being unexported.
func isName(s string) bool {
	for i := 0; i < len(s); i++ {
		if s[i] >= utf8.RuneSelf {
			_, err := xml.NewDecoder(strings.NewReader("<?" + s + "?>")).RawToken()
			return err == nil
		}
	}
	c := s[0]
	return 'a' <= c|0x20 && c|0x20 <= 'z' || c == '_' || c == ':'
}

// startsName reports whether local, the tail of a name the decoder accepted,
// is a name of its own. Every character of it is a name character already, so
// only the first can be wrong: a digit, '.', '-' or combining mark, legal
// after the prefix and illegal in front. Past the ASCII letters the decoder
// itself is asked, its name tables being unexported.
func startsName(local string) bool {
	if local == "" {
		return false
	}
	if c := local[0] | 0x20; 'a' <= c && c <= 'z' || local[0] == '_' {
		return true
	}
	_, err := xml.NewDecoder(strings.NewReader("<" + local + "/>")).Token()
	return err == nil
}
