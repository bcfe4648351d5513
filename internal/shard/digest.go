package shard

import "extract/internal/search"

// Digest is the cross-shard evidence one shard contributes to the root
// decision of a sharded (or distributed) query: per-keyword match and
// free-witness bits plus two local facts about the shard's own answer set.
// It is everything the root-aware merge (Merge) needs from a shard besides
// the result trees themselves, which is what lets a remote shard server send
// a few booleans instead of posting lists.
type Digest struct {
	// Matched reports, per query term (in search.Query.Terms order),
	// whether the shard has at least one match.
	Matched []bool
	// Free reports, per query keyword, whether the shard has a witness
	// match outside the subtrees of its outermost non-root LCAs — the
	// per-shard half of the ELCA root check (see RootIsELCA).
	Free []bool
	// HasNonRootLCAs reports a non-empty local LCA set below the shard
	// root.
	HasNonRootLCAs bool
	// RootAnchored reports a local result anchored at the shard root —
	// i.e. at (the copy of) the global document root.
	RootAnchored bool
}

// NewDigest summarizes one shard's evaluation; rootAnchored reports a local
// result anchored at the shard root. ev must be non-nil; a shard missing a
// query keyword digests its no-LCA evaluation (posting-list lookups only). The
// free-witness bits are the evaluation's own (search.Evaluation.Free): the
// ELCA pass leaves them behind as the root's row, and an SLCA evaluation,
// whose root decision never reads them, has none.
func NewDigest(ev *search.Evaluation, rootAnchored bool) Digest {
	d := Digest{
		Matched:      make([]bool, len(ev.Lists)),
		Free:         ev.Free,
		RootAnchored: rootAnchored,
	}
	for j, l := range ev.Lists {
		d.Matched[j] = l.Len() > 0
	}
	// LCAs are in document order, so only the first can be the root,
	// which is column entry 0.
	if n := len(ev.Entries); n > 0 {
		d.HasNonRootLCAs = ev.Entries[n-1] != 0
	}
	return d
}

// keywordCount returns the per-keyword width of a digest set (digests from
// one query all agree; a zero-width digest carries no keyword evidence).
func keywordCount(digests []Digest) int {
	for _, d := range digests {
		if len(d.Matched) > 0 {
			return len(d.Matched)
		}
	}
	return 0
}

// AllKeywordsMatch reports whether every query keyword has at least one
// match in some shard (conjunctive semantics at corpus scope) — the SLCA
// half of the root decision: when no shard produced a non-root SLCA, the
// root is the (sole) answer iff this holds.
func AllKeywordsMatch(digests []Digest) bool {
	k := keywordCount(digests)
	if k == 0 {
		return false
	}
	for j := 0; j < k; j++ {
		found := false
		for _, d := range digests {
			if j < len(d.Matched) && d.Matched[j] {
				found = true
				break
			}
		}
		if !found {
			return false
		}
	}
	return true
}

// RootIsELCA decides whether the original document root is an exclusive LCA
// (see search.ELCABaseline): the root qualifies iff every keyword still has
// a witness match after excluding the subtrees of the root's ELCA
// descendants. The non-root ELCAs are exactly the per-shard local ELCA
// sets, so the exclusion zones are shard-local and each shard's free bits
// (Digest.Free) are computed independently; a witness in any shard serves
// (including the shard root itself at ord 0, which carries the global
// root's tag and direct-text matches).
func RootIsELCA(digests []Digest) bool {
	k := keywordCount(digests)
	if k == 0 {
		return false
	}
	for j := 0; j < k; j++ {
		free := false
		for _, d := range digests {
			if j < len(d.Free) && d.Free[j] {
				free = true
				break
			}
		}
		if !free {
			return false
		}
	}
	return true
}

// RootQualifies runs the semantics-appropriate root decision over one
// query's digests: under ELCA the free-witness check, under SLCA the
// all-keywords-match check gated on no shard having produced a non-root
// SLCA. Merge is its one caller: the local corpus and the distributed router
// both decide through it.
func RootQualifies(sem search.Semantics, digests []Digest) bool {
	if sem == search.SemanticsELCA {
		return RootIsELCA(digests)
	}
	for _, d := range digests {
		if d.HasNonRootLCAs {
			return false
		}
	}
	return AllKeywordsMatch(digests)
}
