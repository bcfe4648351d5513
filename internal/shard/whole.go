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

// roundTwo is Merge's second round for an in-process query: the answer an
// engine over the whole document gives, as hits (Round.Build builds them),
// computed from round one's partials (parts, untrimmed, one per shard)
// without evaluating or copying the whole document. The whole document's
// LCAs are the root when it qualifies (rootLCA), then every shard's non-root
// LCAs in shard order; an LCA with no entity above it inside its shard is
// anchored at the shard root, which is the document root. So the whole
// engine's results are the shards' own, except that every hit anchored at a
// shard root folds into one wholeHit anchored at the root — one per LCA
// without DistinctAnchors. The cut is the whole engine's
// (search.Engine.Evaluate): the first MaxResults distinct anchors in LCA
// order — each shard's hits carry the first LCA of their anchor, so sorting
// them by LCA restores that order, and a shard's first MaxResults always
// suffice — then in anchor order, one anchor's results in LCA order. The
// hits are sorted, cut and returned in one slice.
func (sc *Corpus) roundTwo(opts search.Options, parts []Partial[search.Hit], rootLCA bool) []search.Hit {
	w := sc.Whole()
	// global returns a hit's anchor's and LCA's global positions.
	global := func(h search.Hit) (anchor, lca int32) {
		if h.Shard == wholeHit {
			return 0, h.LCA
		}
		return w.Global(int(h.Shard), h.Anchor), w.Global(int(h.Shard), h.LCA)
	}
	byLCA := func(a, b search.Hit) int {
		_, la := global(a)
		_, lb := global(b)
		return cmp.Compare(la, lb)
	}
	n := 1
	for _, p := range parts {
		n += len(p.Results)
	}
	seq := make([]search.Hit, 0, n)
	if rootLCA {
		seq = append(seq, search.Hit{Shard: wholeHit})
	}
	for i, p := range parts {
		start := len(seq)
		for _, h := range p.Results {
			if h.Anchor == 0 {
				h = search.Hit{Shard: wholeHit, LCA: w.Global(i, h.LCA)}
			}
			seq = append(seq, h)
		}
		slices.SortFunc(seq[start:], byLCA)
	}
	kept, rootTaken := seq[:0], false
	for _, h := range seq {
		if h.Shard == wholeHit && opts.DistinctAnchors {
			if rootTaken {
				continue
			}
			rootTaken = true
		}
		kept = append(kept, h)
		if opts.MaxResults > 0 && len(kept) >= opts.MaxResults {
			break
		}
	}
	if len(kept) == 0 {
		return nil
	}
	slices.SortFunc(kept, func(a, b search.Hit) int {
		aa, la := global(a)
		ab, lb := global(b)
		return cmp.Or(cmp.Compare(aa, ab), cmp.Compare(la, lb))
	})
	return kept
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
