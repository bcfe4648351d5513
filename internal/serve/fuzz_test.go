package serve

import (
	"strings"
	"testing"

	"extract/internal/search"
)

// FuzzCacheKey holds cacheKey to its specification on adversarial query
// strings and option combinations: two (query, options, bound) triples get
// one key iff sameResponse says they may share a cache entry — a collision
// would serve one query another's response, a split would only cost a miss,
// and both fail here. Besides the fuzzer's independent pair, each query is
// checked against respellings, permutations and re-phrasings of itself, the
// neighbours most likely to collide. Runs for 10s in CI's fuzz job.
func FuzzCacheKey(f *testing.F) {
	f.Add(`"a b"`, "a b", byte(0), byte(0), uint16(0), uint16(0), int16(-1), int16(-1))
	f.Add("store  texas", "Store texas", byte(7), byte(7), uint16(25), uint16(25), int16(10), int16(10))
	f.Add("texas apparel retailer", "retailer apparel texas", byte(1), byte(1), uint16(1), uint16(1), int16(0), int16(-1))

	f.Fuzz(func(t *testing.T, qa, qb string, flagsA, flagsB byte, maxA, maxB uint16, boundA, boundB int16) {
		a := keyTriple{qa, fuzzOptions(flagsA, maxA), int(boundA)}
		b := keyTriple{qb, fuzzOptions(flagsB, maxB), int(boundB)}
		check := func(x, y keyTriple) {
			if got, want := x.key() == y.key(), sameResponse(x, y); got != want {
				t.Fatalf("keys equal = %v, want %v:\n%+v -> %q\n%+v -> %q", got, want, x, x.key(), y, y.key())
			}
		}
		check(a, b)
		check(a, keyTriple{qa, b.opts, b.bound})
		check(a, keyTriple{qb, a.opts, a.bound})

		terms := search.ParseQuery(qa)
		var reversed, spaced []string
		for i := len(terms) - 1; i >= 0; i-- {
			reversed = append(reversed, `"`+terms[i].String()+`"`)
		}
		for _, term := range terms {
			spaced = append(spaced, term.Tokens...)
		}
		for _, q := range []string{
			strings.ToUpper(qa) + " ,",        // respelled
			strings.Join(reversed, " "),       // permuted, phrases kept
			strings.Join(spaced, "  "),        // phrases broken into words
			`"` + strings.Join(spaced, " "),   // everything one phrase
			strings.ReplaceAll(qa, `"`, `""`), // quoting shifted
		} {
			check(a, keyTriple{q, a.opts, a.bound})
		}
	})
}

func fuzzOptions(flags byte, maxResults uint16) search.Options {
	opts := search.Options{DistinctAnchors: flags&1 != 0, MaxResults: int(maxResults)}
	if flags&2 != 0 {
		opts.Semantics = search.SemanticsELCA
	}
	if flags&4 != 0 {
		opts.Mode = search.ModeXSeek
	}
	return opts
}
