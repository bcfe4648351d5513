package serve

import (
	"encoding/binary"

	"extract/internal/search"
)

// A served response is a function of exactly three things — the parsed
// term sequence, the evaluation options and the snippet bound — and the
// cache key is that tuple written down:
//
//	[semantics|mode|distinct bits] [maxResults] [bound+1, 0 = search-only]
//	then per term, in query order: its tokens joined by ' ', then NUL
//
// (the two numbers are varints). Built from search.ParseQuery's terms, two
// spellings that tokenize alike ("store  texas", "Store texas") share an
// entry by construction.
//
// Query order is kept, not canonicalised away: the IList leads with the
// query keywords in query order, so a permuted query can produce different
// snippet bytes and must not share an entry.
//
// The framing is injective — two (terms, options, bound) tuples share a key
// iff they are equal. The header's fields are self-delimiting, and tokens
// are letters and digits only (index.Tokenize), so a token holds neither
// ' ' nor NUL: the NULs delimit the terms, the spaces the tokens inside a
// phrase, and the phrase "a b" (a b NUL) cannot collide with the words a b
// (a NUL b NUL).

const (
	keyELCA     byte = 1 << 0
	keyXSeek    byte = 1 << 1
	keyDistinct byte = 1 << 2
)

// cacheKey builds the cache key for a parsed query and its evaluation
// options; bound < 0 marks a search-only key.
func cacheKey(terms []search.Term, opts search.Options, bound int) string {
	flags := byte(0)
	if opts.Semantics == search.SemanticsELCA {
		flags |= keyELCA
	}
	if opts.Mode == search.ModeXSeek {
		flags |= keyXSeek
	}
	if opts.DistinctAnchors {
		flags |= keyDistinct
	}
	buf := make([]byte, 0, 64)
	buf = append(buf, flags)
	buf = binary.AppendUvarint(buf, uint64(opts.MaxResults))
	buf = binary.AppendUvarint(buf, uint64(max(bound, -1)+1))
	for _, t := range terms {
		for i, tok := range t.Tokens {
			if i > 0 {
				buf = append(buf, ' ')
			}
			buf = append(buf, tok...)
		}
		buf = append(buf, 0)
	}
	return string(buf)
}
