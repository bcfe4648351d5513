package shard

import (
	"context"
	"slices"

	"extract/internal/search"
	"extract/internal/telemetry"
)

// Partial is one shard's share of a query's first round: the Digest of its
// untrimmed local answer and its local Results in document order; Results
// may be any prefix of that answer the sender knows the cut cannot reach
// past (see MergeTake). A shard missing a query keyword answers like any
// other — no results, and the digest of its no-LCA evaluation.
type Partial[R any] struct {
	Digest  Digest
	Results []R
}

// Rounds is where a sharded query's evidence comes from: the local corpus
// reads its own shards (Corpus.EvalShards, and round two composed from round
// one's partials), the distributed router asks shard servers for the same
// two things over the wire. Merge drives it; R is whatever stands for one
// result on the caller's side of that boundary.
type Rounds[R any] interface {
	// Eval runs round one everywhere: element i is shard i's Partial, for
	// every shard of the corpus.
	Eval(ctx context.Context) ([]Partial[R], error)
	// Whole answers a root-involving query as an engine over the whole
	// document would, given round one's partials (parts) and whether the
	// root itself is an LCA (rootLCA): a local corpus composes the answer
	// from them (Corpus.roundTwo); a router, whose partials are trimmed
	// handles, asks any shard server, which composes it from its own.
	Whole(ctx context.Context, parts []Partial[R], rootLCA bool) ([]R, error)
}

// Merge is the sharded-query protocol, stated once: it answers a query over
// a corpus of shards from per-shard evidence, exactly as an engine over the
// whole document would (the equivalence property tests pin local ==
// unsharded and routed == local). A local corpus runs it from two shards up —
// one shard is searched directly, the reference path — and the distributed
// router at every shard count, one included.
//
// Any non-root SLCA/ELCA lies entirely inside one shard, so the union of the
// per-shard LCA sets minus the shard roots — what round one evaluates, on
// every shard — is exactly the global non-root LCA set. The root itself can
// only qualify through cross-shard evidence, which RootQualifies decides from
// round one's Digests:
//
//   - SLCA: the root is the (sole) answer iff no shard produced a non-root
//     SLCA and every keyword matches somewhere in the corpus.
//   - ELCA: the root qualifies iff every keyword has a witness match
//     outside the subtrees of the root's ELCA descendants (see RootIsELCA).
//
// Round two runs only for a root-involving query — the root qualifying, or
// a result anchored at a shard root, which is a copy of the global root. It
// evaluates nothing and copies nothing: the answer is round one's results
// with every root-anchored one folded into one result anchored at the root,
// a view of the whole document over the shards, cut as an engine over the
// whole document cuts (Corpus.roundTwo); ctx is re-checked before it. Every
// other query is the concatenation MergeResults cuts at opts.MaxResults,
// reading a result's LCA position in its shard through lca.
func Merge[R any](ctx context.Context, opts search.Options, rounds Rounds[R], lca func(R) int32) ([]R, error) {
	parts, err := rounds.Eval(ctx)
	if err != nil {
		return nil, err
	}
	anyLCAs, rootAnchored := false, false
	for _, p := range parts {
		anyLCAs = anyLCAs || p.Digest.HasNonRootLCAs
		rootAnchored = rootAnchored || p.Digest.RootAnchored
	}

	rootQualifies := false
	if opts.Semantics == search.SemanticsELCA || !anyLCAs {
		digests := make([]Digest, len(parts))
		for i, p := range parts {
			digests[i] = p.Digest
		}
		rootQualifies = RootQualifies(opts.Semantics, digests)
	}

	if rootQualifies || rootAnchored {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		if sink := telemetry.SpanSinkFrom(ctx); sink != nil {
			sink.NoteFallback() // extract_query_fallbacks_total: round-two answers
		}
		return rounds.Whole(ctx, parts, rootQualifies)
	}
	byShard := make([][]R, len(parts))
	for i, p := range parts {
		byShard[i] = p.Results
	}
	return MergeResults(byShard, opts.MaxResults, lca), nil
}

// MergeTake is the bounded merge's cut, stated once for every reader: given
// each shard's local result count in shard order, it reduces counts[i] in
// place to the number of results the merge takes from shard i and returns
// their total. The global order the engine cuts in is LCA order, and
// contiguous partitioning makes it shard-major — every LCA of shard i comes
// before every LCA of shard i+1 — so the bounded top-k merge is a
// concatenation with a cutoff: every result until maxResults (0 = all) are
// taken, none after; which results of the shard the cut falls in are taken
// is AppendEarliest's. A future non-contiguous partitioner must replace this
// with a real k-way merge on a global position key.
//
// The cut depends on the counts alone, and it may be applied to any subset of
// the shards taken in ascending order: a result's position among a subset
// never exceeds its position among all shards, so what the cut drops from a
// subset the merge over all shards drops too. MergeResults concatenates by
// it — locally over result trees, on the distributed router over scanned
// byte ranges, so only the results it takes are ever built — and a shard
// server stops shipping at it.
func MergeTake(counts []int, maxResults int) (total int) {
	for i, n := range counts {
		if maxResults > 0 && n > maxResults-total {
			n = maxResults - total
			counts[i] = n
		}
		total += n
	}
	return total
}

// LeadingRun is the length p of shards' leading run: the largest p with
// shards[:p] = 0, 1, …, p−1. MergeTake over the counts of a leading run is the
// global cut restricted to those shards — a shard's take depends only on the
// counts of the shards before it — so every result a sender trims a leading
// run to is in the merged answer, unless the query takes round two (Merge),
// whose answer replaces round one's. A shard server snippets them while it
// still holds them, and the router asks for the snippets of the other winners
// only. The rule holds only for a cut in document order, which every query's
// is — ranked ones included, whose order is applied after the cut; a cut in
// score order must not use it.
func LeadingRun(shards []uint32) int {
	p := 0
	for p < len(shards) && shards[p] == uint32(p) {
		p++
	}
	return p
}

// MergeResults merges the per-shard result lists (each sorted by anchor
// document order) into global order, keeping at most maxResults results
// (0 = all): the concatenation MergeTake cuts, each shard's share the
// results with its earliest LCAs (AppendEarliest; lca is a result's LCA
// position in its shard).
func MergeResults[R any](byShard [][]R, maxResults int, lca func(R) int32) []R {
	// The counts of any realistic shard set stay on the stack, so the merged
	// slice is the one allocation.
	var buf [32]int
	counts := buf[:0]
	for _, rs := range byShard {
		counts = append(counts, len(rs))
	}
	total := MergeTake(counts, maxResults)
	if total == 0 {
		return nil
	}
	out := make([]R, 0, total)
	for i, rs := range byShard {
		out = AppendEarliest(out, rs, counts[i], lca)
	}
	return out
}

// AppendEarliest appends to dst the n results of rs — one shard's, in anchor
// order — whose LCAs come first (lca: a result's LCA position in the shard),
// still in anchor order: what the cut takes from a shard it falls in. An
// engine keeps the first MaxResults distinct anchors in LCA order and then
// sorts them by anchor (search.Engine.Results), and an entity can anchor a
// result before an earlier entity's whose LCA comes first — so the first n
// in anchor order need not be the n it keeps. A shard's results have
// distinct LCAs (one result per LCA, or per anchor at its first LCA). dst
// may be rs[:0].
func AppendEarliest[R any](dst, rs []R, n int, lca func(R) int32) []R {
	if n >= len(rs) {
		return append(dst, rs...)
	}
	if n <= 0 {
		return dst
	}
	var buf [64]int32
	lcas := buf[:0]
	for _, r := range rs {
		lcas = append(lcas, lca(r))
	}
	slices.Sort(lcas)
	last := lcas[n-1]
	for _, r := range rs {
		if lca(r) <= last {
			dst = append(dst, r)
		}
	}
	return dst
}
