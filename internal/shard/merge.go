package shard

import (
	"context"

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
// reads its own shards (Corpus.EvalShards, SearchWhole), the distributed
// router asks shard servers for the same two things over the wire. Merge
// drives it; R is whatever stands for one result on the caller's side of
// that boundary.
type Rounds[R any] interface {
	// Eval runs round one everywhere: element i is shard i's Partial, for
	// every shard of the corpus.
	Eval(ctx context.Context) ([]Partial[R], error)
	// Whole evaluates the query on the whole document.
	Whole(ctx context.Context) ([]R, error)
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
// Round two, the whole-document evaluation, runs only for a root-involving
// query — the root qualifying, or a result anchored at a shard root, which
// is a copy of the global root — and is exact by construction; ctx is
// re-checked before paying for it. Every other query is the concatenation
// MergeResults cuts at opts.MaxResults.
func Merge[R any](ctx context.Context, opts search.Options, rounds Rounds[R]) ([]R, error) {
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
			sink.NoteFallback() // extract_query_fallbacks_total
		}
		return rounds.Whole(ctx)
	}
	byShard := make([][]R, len(parts))
	for i, p := range parts {
		byShard[i] = p.Results
	}
	return MergeResults(byShard, opts.MaxResults), nil
}

// MergeTake is the bounded merge's cut, stated once for every reader: given
// each shard's local result count in shard order, it reduces counts[i] in
// place to the number of results the merge takes from shard i and returns
// their total. The global sort key is (shard index, local anchor ord), and
// contiguous partitioning makes that key shard-major — a k-way merge heap
// over the stream heads would only ever drain the streams one after
// another — so the bounded top-k merge is a concatenation with a cutoff:
// every result until maxResults (0 = all) are taken, none after. A future
// non-contiguous partitioner must replace this with a real k-way merge on a
// global position key.
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

// MergeResults merges the per-shard result lists (each sorted by anchor
// document order) into global order, keeping at most maxResults results
// (0 = all): the concatenation MergeTake cuts.
func MergeResults[R any](byShard [][]R, maxResults int) []R {
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
		out = append(out, rs[:counts[i]]...)
	}
	return out
}
