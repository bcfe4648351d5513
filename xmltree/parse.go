package xmltree

import (
	"encoding/xml"
	"errors"
	"fmt"
	"io"
	"os"
	"strings"
)

// ParseOption configures Parse.
type ParseOption func(*parseConfig)

type parseConfig struct {
	keepAttrs  bool
	trimSpace  bool
	maxNodes   int
	keepMixed  bool
	nsStripped bool
}

// WithAttributes controls whether XML attributes are normalized into
// attribute-shaped element children (default true).
func WithAttributes(keep bool) ParseOption {
	return func(c *parseConfig) { c.keepAttrs = keep }
}

// WithTrimSpace controls whether pure-whitespace text is dropped and other
// text is space-trimmed (default true).
func WithTrimSpace(trim bool) ParseOption {
	return func(c *parseConfig) { c.trimSpace = trim }
}

// WithMaxNodes bounds the number of nodes Parse will materialize; parsing a
// larger document fails with ErrTooLarge. Zero (the default) means no bound.
func WithMaxNodes(n int) ParseOption {
	return func(c *parseConfig) { c.maxNodes = n }
}

// WithNamespaceStripping controls whether namespace prefixes are stripped
// from element and attribute names (default true): the paper's model is
// prefix-free tags.
func WithNamespaceStripping(strip bool) ParseOption {
	return func(c *parseConfig) { c.nsStripped = strip }
}

// ErrTooLarge reports that a document exceeded the WithMaxNodes bound.
var ErrTooLarge = errors.New("xmltree: document exceeds node limit")

// ErrEmpty reports that the input contained no root element.
var ErrEmpty = errors.New("xmltree: no root element")

// Parse reads an XML document from r and returns its finalized Document.
// XML attributes become attribute-shaped element children (unless disabled),
// namespace prefixes are stripped, and whitespace-only text is dropped.
// Comments, processing instructions and directives are ignored.
func Parse(r io.Reader, opts ...ParseOption) (*Document, error) {
	cfg := parseConfig{keepAttrs: true, trimSpace: true, nsStripped: true}
	for _, o := range opts {
		o(&cfg)
	}

	dec := xml.NewDecoder(r)
	dec.Strict = true

	var (
		root     *Node
		stack    []*Node
		count    int
		internal string
	)
	push := func(n *Node) error {
		count++
		if cfg.maxNodes > 0 && count > cfg.maxNodes {
			return ErrTooLarge
		}
		if len(stack) == 0 {
			if root != nil {
				return fmt.Errorf("xmltree: multiple root elements")
			}
			root = n
		} else {
			Append(stack[len(stack)-1], n)
		}
		return nil
	}

	for {
		tok, err := dec.Token()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, fmt.Errorf("xmltree: parse: %w", err)
		}
		switch t := tok.(type) {
		case xml.StartElement:
			label, err := elemName(t.Name, cfg.nsStripped)
			if err != nil {
				return nil, err
			}
			n := &Node{Kind: KindElement, Label: label}
			if err := push(n); err != nil {
				return nil, err
			}
			stack = append(stack, n)
			if cfg.keepAttrs {
				for _, a := range t.Attr {
					if a.Name.Space == "xmlns" {
						continue
					}
					name, err := elemName(a.Name, cfg.nsStripped)
					if err != nil {
						return nil, err
					}
					if name == "xmlns" || strings.HasPrefix(name, "xmlns") && !cfg.nsStripped {
						continue
					}
					attr := Attr(name, a.Value)
					attr.FromAttr = true
					attr.Children[0].FromAttr = true
					if err := push(attr); err != nil {
						return nil, err
					}
					count++ // the text child
					if cfg.maxNodes > 0 && count > cfg.maxNodes {
						return nil, ErrTooLarge
					}
				}
			}
		case xml.EndElement:
			if len(stack) == 0 {
				return nil, fmt.Errorf("xmltree: unbalanced end element %s", t.Name.Local)
			}
			stack = stack[:len(stack)-1]
		case xml.CharData:
			if len(stack) == 0 {
				continue // ignore text outside the root
			}
			v := string(t)
			if cfg.trimSpace {
				v = strings.TrimSpace(v)
				if v == "" {
					continue
				}
			}
			parent := stack[len(stack)-1]
			// Merge adjacent text runs (entity boundaries split CharData).
			if k := len(parent.Children); k > 0 && parent.Children[k-1].IsText() {
				sep := ""
				if cfg.trimSpace {
					sep = " "
				}
				parent.Children[k-1].Value += sep + v
				continue
			}
			if err := push(&Node{Kind: KindText, Value: v}); err != nil {
				return nil, err
			}
		case xml.Directive:
			// Capture a DOCTYPE's internal subset ("<!DOCTYPE root
			// [ ... ]>") so callers can classify with it.
			if internal == "" {
				internal = internalSubset(string(t))
			}
		case xml.Comment, xml.ProcInst:
			// ignored
		}
	}
	if len(stack) != 0 {
		return nil, fmt.Errorf("xmltree: unexpected EOF inside <%s>", stack[len(stack)-1].Label)
	}
	if root == nil {
		return nil, ErrEmpty
	}
	doc := NewDocument(root)
	doc.InternalSubset = internal
	return doc, nil
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

// ParseString parses a document from a string.
func ParseString(s string, opts ...ParseOption) (*Document, error) {
	return Parse(strings.NewReader(s), opts...)
}

// ParseFile parses a document from a file on disk.
func ParseFile(path string, opts ...ParseOption) (*Document, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return Parse(f, opts...)
}

// elemName is the label of an element or attribute name. Stripping a prefix
// can leave something that is not a name — "0" from <A:0/> — which WriteXML
// would emit and Parse then refuse, so it is refused here.
func elemName(n xml.Name, strip bool) (string, error) {
	if n.Space == "" {
		return n.Local, nil
	}
	if !strip {
		return n.Space + ":" + n.Local, nil
	}
	if !startsName(n.Local) {
		return "", fmt.Errorf("xmltree: parse: stripping the namespace of %s:%s leaves %q, which is not a valid XML name", n.Space, n.Local, n.Local)
	}
	return n.Local, nil
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
