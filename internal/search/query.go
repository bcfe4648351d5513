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

// TermKeys returns the keys of a query's terms (Term.String) in query order:
// the keywords a result's Matches and MatchDepth are keyed by, and the ones
// ranking scores against.
func TermKeys(q string) []string {
	terms := ParseQuery(q)
	keys := make([]string, len(terms))
	for i, t := range terms {
		keys[i] = t.String()
	}
	return keys
}

// ParseQuery splits a query into terms: double-quoted spans become phrase
// terms ("Brook Brothers" must match consecutively in one value);
// everything else becomes single-keyword terms. Unbalanced quotes treat
// the tail as quoted. Duplicate terms are removed, order preserved.
func ParseQuery(q string) []Term {
	var terms []Term
	add := func(text string, phrase bool) {
		toks := index.Tokenize(text)
		if len(toks) == 0 {
			return
		}
		if phrase {
			terms = append(terms, Term{Tokens: toks})
			return
		}
		for _, t := range toks {
			terms = append(terms, Term{Tokens: []string{t}})
		}
	}
	for {
		open := strings.IndexByte(q, '"')
		if open < 0 {
			add(q, false)
			break
		}
		add(q[:open], false)
		rest := q[open+1:]
		close := strings.IndexByte(rest, '"')
		if close < 0 {
			add(rest, true)
			break
		}
		add(rest[:close], true)
		q = rest[close+1:]
	}
	// Dedupe, preserving order.
	seen := map[string]bool{}
	out := terms[:0]
	for _, t := range terms {
		k := t.String()
		if !seen[k] {
			seen[k] = true
			out = append(out, t)
		}
	}
	return out
}

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
