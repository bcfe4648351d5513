// Package index builds the keyword and structure indexes of eXtract's Index
// Builder component (paper §3): an inverted index from keywords to the
// element nodes whose tag names or text values contain them, the document's
// elements in preorder as pointer-free integer columns (Columns), plus
// corpus statistics. The search engine substrate reads the posting lists;
// the snippet generator reads both — a result is one preorder interval, so
// its keyword instances are a run of each posting list (PostingList.Within)
// and its statistics a fold over a run of the columns (Columns.Run). Both
// sections are functions of the document alone. The columns are derived —
// written by Build, filled on first use after FromParts — and are part of no
// file or wire format.
package index

import (
	"unicode"
	"unicode/utf8"
	"unsafe"
)

// Tokenize splits free text into lowercase keyword tokens. Token characters
// are letters and digits; everything else separates tokens. Tokenization is
// shared by index construction and query parsing so matches are symmetric.
//
// ASCII text takes an allocation-light fast path: already-lowercase tokens
// are returned as substrings of s, and only tokens containing uppercase
// letters or non-ASCII runes are rebuilt. Callers that only inspect tokens
// should prefer EachToken, which does not build the slice.
func Tokenize(s string) []string {
	var out []string
	EachToken(s, func(t string) bool {
		out = append(out, t)
		return true
	})
	return out
}

func isAlnumASCII(c byte) bool {
	return 'a' <= c && c <= 'z' || 'A' <= c && c <= 'Z' || '0' <= c && c <= '9'
}

// EachToken calls fn for every token of s in order, stopping early if fn
// returns false. Tokenization is identical to Tokenize, but lowercase ASCII
// tokens are passed as substrings without materializing a token slice, so
// scanning large text corpora for a small keyword set does not allocate.
func EachToken(s string, fn func(string) bool) { eachToken(s, nil, fn) }

// EachTokenIn is EachToken for a caller that keeps none of the tokens it is
// passed (a lookup): a token that is not a substring of s — it had
// upper-case letters or non-ASCII runes — is built in *buf, reused from one
// token and one call to the next, and is valid only until fn returns. So
// tokenizing allocates nothing once *buf has grown to the longest such token.
func EachTokenIn(s string, buf *[]byte, fn func(string) bool) { eachToken(s, buf, fn) }

// eachToken tokenizes s for EachToken (buf nil: a rebuilt token is a string
// of its own) and EachTokenIn (a rebuilt token is built in *buf).
func eachToken(s string, buf *[]byte, fn func(string) bool) {
	var own []byte
	if buf == nil {
		buf = &own
	}
	// token returns the lower-cased token built in b: for EachTokenIn, b
	// goes back to *buf for the next token; for EachToken, the string owns b
	// and the next token is built in a new one.
	token := func(b []byte) string {
		if buf == &own {
			own = nil
		} else {
			*buf = b
		}
		return unsafe.String(unsafe.SliceData(b), len(b))
	}
	n := len(s)
	for i := 0; i < n; {
		c := s[i]
		if c < utf8.RuneSelf && !isAlnumASCII(c) {
			i++ // ASCII separator
			continue
		}
		start := i
		lower, ascii := true, true
		for i < n {
			c = s[i]
			if c >= utf8.RuneSelf {
				ascii = false
				break
			}
			if !isAlnumASCII(c) {
				break
			}
			if 'A' <= c && c <= 'Z' {
				lower = false
			}
			i++
		}
		if ascii {
			tok := s[start:i]
			if !lower {
				b := append((*buf)[:0], tok...)
				for k, c := range b {
					if 'A' <= c && c <= 'Z' {
						b[k] = c + 'a' - 'A'
					}
				}
				tok = token(b)
			}
			if !fn(tok) {
				return
			}
			continue
		}
		b := (*buf)[:0]
		j := start
		for j < n {
			r, size := utf8.DecodeRuneInString(s[j:])
			if !unicode.IsLetter(r) && !unicode.IsDigit(r) {
				break
			}
			b = utf8.AppendRune(b, unicode.ToLower(r))
			j += size
		}
		if len(b) > 0 {
			if !fn(token(b)) {
				return
			}
		} else {
			_, size := utf8.DecodeRuneInString(s[j:])
			j += size
		}
		i = j
	}
}

// TokenSet returns the distinct tokens of s.
func TokenSet(s string) map[string]bool {
	set := make(map[string]bool)
	for _, t := range Tokenize(s) {
		set[t] = true
	}
	return set
}

// MatchesKeyword reports whether any token of s equals the (already
// lowercase) keyword.
func MatchesKeyword(s, keyword string) bool {
	for _, t := range Tokenize(s) {
		if t == keyword {
			return true
		}
	}
	return false
}
