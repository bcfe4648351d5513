package shard

import (
	"cmp"
	"fmt"
	"slices"

	"extract/internal/index"
	"extract/internal/search"
)

// Whole returns the whole document read through the shards (index.Whole):
// what a root-involving answer's whole-document result is a view of, made
// once per generation. It copies nothing; its global symbol ids and its
// statistics are computed the first time a whole-document result needs them.
func (sc *Corpus) Whole() *index.Whole {
	sc.wholeOnce.Do(func() {
		parts := make([]*index.Index, len(sc.shards))
		for i, s := range sc.shards {
			parts[i] = s.Index
		}
		sc.whole = index.NewWhole(parts)
	})
	return sc.whole
}

// placed is one result of round two with its anchor's and LCA's global
// positions; r is nil for a result anchored at the root, built last.
type placed struct {
	r           *search.Result
	anchor, lca int32
}

// roundTwo is Merge's second round for an in-process query: the answer an
// engine over the whole document gives, computed from round one's partials
// (parts, untrimmed, one per shard; lists, their posting lists of q's terms)
// without evaluating or copying the whole document. The whole document's
// LCAs are the root when it qualifies (rootLCA), then every shard's non-root
// LCAs in shard order; an LCA with no entity above it inside its shard is
// anchored at the shard root, which is the document root. So the whole
// engine's results are the shards' own, except that every result anchored at
// a shard root folds into one anchored at the root — one per LCA without
// DistinctAnchors. The cut is the whole engine's (search.Engine.Results): the
// first MaxResults distinct anchors in LCA order — each shard's results carry
// the first LCA of their anchor, so sorting them by LCA restores that order,
// and a shard's first MaxResults always suffice — then in anchor order, one
// anchor's results in LCA order.
func (sc *Corpus) roundTwo(q search.Query, opts search.Options, parts []Partial[*search.Result], lists [][]*index.PostingList, rootLCA bool) []*search.Result {
	w := sc.Whole()
	var seq []placed
	if rootLCA {
		seq = append(seq, placed{})
	}
	for i, p := range parts {
		root, start := sc.shards[i].Doc.Root, len(seq)
		for _, r := range p.Results {
			at := placed{r: r, lca: w.Global(i, int32(r.LCA.Ord))}
			if r.Anchor == root {
				at.r = nil
			} else {
				at.anchor = w.Global(i, int32(r.Anchor.Ord))
			}
			seq = append(seq, at)
		}
		slices.SortFunc(seq[start:], func(a, b placed) int { return cmp.Compare(a.lca, b.lca) })
	}
	kept := make([]placed, 0, len(seq))
	rootTaken := false
	for _, at := range seq {
		if at.r == nil && opts.DistinctAnchors {
			if rootTaken {
				continue
			}
			rootTaken = true
		}
		kept = append(kept, at)
		if opts.MaxResults > 0 && len(kept) >= opts.MaxResults {
			break
		}
	}
	slices.SortFunc(kept, func(a, b placed) int { return cmp.Or(cmp.Compare(a.anchor, b.anchor), cmp.Compare(a.lca, b.lca)) })
	if len(kept) == 0 {
		return nil
	}
	out := make([]*search.Result, len(kept))
	for i, at := range kept {
		if out[i] = at.r; at.r == nil {
			out[i] = sc.WholeResult(q, opts, at.lca, lists)
		}
	}
	return out
}

// WholeResult returns q's result anchored at the document root whose LCA is
// at global position lca, given q's posting lists on every shard (lists[i]
// shard i's): a whole-document view over the shards (search.Whole) in
// ModeSubtree, which builds its own tree from the shards for a reader that
// needs one; in ModeXSeek, the projection, which is a small tree of its own,
// built from the shards (search.WholeProjection).
func (sc *Corpus) WholeResult(q search.Query, opts search.Options, lca int32, lists [][]*index.PostingList) *search.Result {
	if opts.Mode == search.ModeXSeek {
		return search.WholeProjection(sc.Whole(), lca, q.Keys, lists, sc.cls)
	}
	return search.Whole(sc.Whole(), lca, q.Keys, lists)
}

// ResultsAt rebuilds q's results anchored at the root from their LCAs'
// global positions (index.Whole), as a whole-document answer placed them:
// each is WholeResult, after the shard holding its LCA has confirmed that the
// root anchors a result there (search.Engine.Anchors). Every other result of
// a whole-document answer is a shard's own, rebuilt on its shard. q's posting
// lists are resolved once on every shard. A position that is not such a
// result is an error.
func (sc *Corpus) ResultsAt(q search.Query, opts search.Options, lcas []int32) ([]*search.Result, error) {
	engines := make([]*search.Engine, len(sc.shards))
	lists := make([][]*index.PostingList, len(sc.shards))
	for i, s := range sc.shards {
		engines[i] = s.Engine(opts)
		ev, err := engines[i].Lists(q)
		if err != nil {
			return nil, err
		}
		lists[i] = ev.Lists
	}
	w := sc.Whole()
	out := make([]*search.Result, len(lcas))
	for k, at := range lcas {
		if at < 0 || int(at) >= w.Len() {
			return nil, fmt.Errorf("shard: no result anchored at the root for the LCA at %d", at)
		}
		if j, lca := w.Locate(at); !engines[j].Anchors(0, int(lca)) {
			return nil, fmt.Errorf("shard: no result anchored at the root for the LCA at %d", at)
		}
		out[k] = sc.WholeResult(q, opts, at, lists)
	}
	return out, nil
}
