package xmltree

import (
	"encoding/xml"
	"fmt"
	"io"
	"strings"
)

// oracleParse is Parse as it was before the byte scanner: encoding/xml's
// strict token loop feeding Append, then NewDocument. It is frozen — the
// reference FuzzParseMatchesOracle and TestParseMatchesOracle hold the
// scanner to — and is never edited to agree with it. The parse knobs the
// product no longer has are pinned at their old defaults (attributes kept,
// space trimmed, namespaces stripped); only WithMaxNodes reaches it.
func oracleParse(r io.Reader, opts ...ParseOption) (*Document, error) {
	var pc parseConfig
	for _, o := range opts {
		o(&pc)
	}
	cfg := struct {
		keepAttrs, trimSpace, nsStripped bool
		maxNodes                         int
	}{keepAttrs: true, trimSpace: true, nsStripped: true, maxNodes: pc.maxNodes}

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
			label, err := oracleElemName(t.Name, cfg.nsStripped)
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
					name, err := oracleElemName(a.Name, cfg.nsStripped)
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

// oracleElemName is the oracle's elemName, frozen with it.
func oracleElemName(n xml.Name, strip bool) (string, error) {
	if n.Space == "" {
		return n.Local, nil
	}
	if !strip {
		return n.Space + ":" + n.Local, nil
	}
	if !oracleStartsName(n.Local) {
		return "", fmt.Errorf("xmltree: parse: stripping the namespace of %s:%s leaves %q, which is not a valid XML name", n.Space, n.Local, n.Local)
	}
	return n.Local, nil
}

// oracleStartsName is the oracle's startsName, frozen with it.
func oracleStartsName(local string) bool {
	if local == "" {
		return false
	}
	if c := local[0] | 0x20; 'a' <= c && c <= 'z' || local[0] == '_' {
		return true
	}
	_, err := xml.NewDecoder(strings.NewReader("<" + local + "/>")).Token()
	return err == nil
}
