package index

// Prefilter answers keyword presence for one index, exactly, from its
// postings map. benchmark/ is its only caller outside tests: its per-shard
// probe counts the shards a query's keywords rule out. The query path has no
// shard prefilter — every shard answers round one (PERFORMANCE.md says why).
type Prefilter struct{ ix *Index }

// Prefilter returns the keyword-presence view of this index.
func (ix *Index) Prefilter() Prefilter { return Prefilter{ix} }

// MayContain reports whether the index holds the canonical keyword token.
func (p Prefilter) MayContain(token string) bool { return p.ix.postings[token].Len() > 0 }

// MayContainAll reports whether the index holds every token. Under
// conjunctive semantics a false answer proves the index can satisfy no
// query involving all of the tokens.
func (p Prefilter) MayContainAll(tokens []string) bool {
	for _, t := range tokens {
		if !p.MayContain(t) {
			return false
		}
	}
	return true
}
