package search

import (
	"strings"

	"extract/internal/index"
	"extract/xmltree"
)

// Term is one unit of a parsed query: a single keyword, or a quoted phrase
// whose tokens must appear consecutively inside one text value.
type Term struct {
	Tokens []string
}

// IsPhrase reports whether the term is a multi-token phrase.
func (t Term) IsPhrase() bool { return len(t.Tokens) > 1 }

// String renders the term as its tokens joined by spaces.
func (t Term) String() string { return strings.Join(t.Tokens, " ") }

// Query is a parsed keyword query. Parse makes it once where a query enters
// a process — the serving layer (serve.Server.Do), and a shard server for
// each request — and every layer below reads that one parse, which is shared
// and only read.
type Query struct {
	// Text is the query as written: what a router sends a shard server.
	Text string
	// Terms are the query's keywords and quoted phrases, duplicates removed.
	Terms []Term
	// Keys are the terms' keys (Term.String), in order: what a result's
	// matches and depths are keyed by, and ranking scores.
	Keys []string
	// Keywords are the terms' tokens, in order: the snippet keywords, which
	// are index.Tokenize(Text) less the tokens of a duplicate term.
	Keywords []string
}

// Parse parses a query: double-quoted spans become phrase terms ("Brook
// Brothers" must match consecutively in one value); everything else becomes
// single-keyword terms. Unbalanced quotes treat the tail as quoted. Duplicate
// terms are removed, order preserved. The terms' tokens are runs of the
// Keywords.
func Parse(text string) Query {
	n := strings.Count(text, " ") + 1
	q := Query{Text: text, Terms: make([]Term, 0, n), Keywords: make([]string, 0, n)}
	// A term's tokens are a run of the Keywords as they grow: only its
	// length is read here.
	add := func(s string, phrase bool) {
		lo := len(q.Keywords)
		index.EachToken(s, func(t string) bool {
			if q.Keywords = append(q.Keywords, t); !phrase {
				q.Terms = append(q.Terms, Term{Tokens: q.Keywords[len(q.Keywords)-1:]})
			}
			return true
		})
		if phrase && len(q.Keywords) > lo {
			q.Terms = append(q.Terms, Term{Tokens: q.Keywords[lo:]})
		}
	}
	for s := text; ; {
		open := strings.IndexByte(s, '"')
		if open < 0 {
			add(s, false)
			break
		}
		add(s[:open], false)
		rest := s[open+1:]
		close := strings.IndexByte(rest, '"')
		if close < 0 {
			add(rest, true)
			break
		}
		add(rest[:close], true)
		s = rest[close+1:]
	}
	// Point every term at its run of the final Keywords, dropping repeats.
	terms, at, seen := q.Terms[:0], 0, map[string]bool{}
	q.Keys = make([]string, 0, len(q.Terms))
	for _, t := range q.Terms {
		end := at + len(t.Tokens)
		t.Tokens, at = q.Keywords[at:end:end], end
		if key := t.String(); !seen[key] {
			seen[key] = true
			terms, q.Keys = append(terms, t), append(q.Keys, key)
		}
	}
	if len(terms) < len(q.Terms) {
		q.Keywords = nil
		for _, t := range terms {
			q.Keywords = append(q.Keywords, t.Tokens...)
		}
	}
	q.Terms = terms
	return q
}

// ParseQuery returns the terms of a query (Parse). Nothing in the product
// calls it: it is kept only because benchmark/ reads a query's terms.
func ParseQuery(q string) []Term { return Parse(q).Terms }

// phraseMatches returns the element nodes holding the phrase: nodes posted
// for every token with a text child containing the tokens consecutively.
// The result is in document order.
func phraseMatches(ix *index.Index, tokens []string) []*xmltree.Node {
	if len(tokens) == 0 {
		return nil
	}
	// Start from the rarest token's postings to keep the scan short.
	base := ix.Postings(tokens[0])
	for _, t := range tokens[1:] {
		if p := ix.Postings(t); len(p) < len(base) {
			base = p
		}
	}
	var out []*xmltree.Node
	for _, p := range base {
		if p.Fields&index.FieldValue == 0 {
			continue
		}
		if nodeHasPhrase(p.Node, tokens) {
			out = append(out, p.Node)
		}
	}
	return out
}

func nodeHasPhrase(n *xmltree.Node, tokens []string) bool {
	for _, c := range n.Children {
		if !c.IsText() {
			continue
		}
		if containsSeq(index.Tokenize(c.Value), tokens) {
			return true
		}
	}
	return false
}

func containsSeq(hay, needle []string) bool {
	if len(needle) == 0 || len(hay) < len(needle) {
		return false
	}
	for i := 0; i+len(needle) <= len(hay); i++ {
		match := true
		for j := range needle {
			if hay[i+j] != needle[j] {
				match = false
				break
			}
		}
		if match {
			return true
		}
	}
	return false
}
