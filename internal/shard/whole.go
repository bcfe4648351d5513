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
// (parts, untrimmed, one per shard) without evaluating or copying the whole
// document. The whole document's LCAs are the root when it qualifies
// (rootLCA), then every shard's non-root LCAs in shard order; an LCA with no
// entity above it inside its shard is anchored at the shard root, which is
// the document root. So the whole engine's results are the shards' own,
// except that every result anchored at a shard root folds into one anchored
// at the root — one per LCA without DistinctAnchors. The cut is the whole
// engine's (search.Engine.Results): the first MaxResults distinct anchors in
// LCA order — each shard's results carry the first LCA of their anchor, so
// sorting them by LCA restores that order, and a shard's first MaxResults
// always suffice — then in anchor order, one anchor's results in LCA order.
func (sc *Corpus) roundTwo(query string, opts search.Options, parts []Partial[*search.Result], rootLCA bool) []*search.Result {
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
			out[i] = sc.WholeResult(query, opts, at.lca)
		}
	}
	return out
}

// WholeResult returns query's result anchored at the document root whose LCA
// is at global position lca: a whole-document view over the shards
// (search.Whole) in ModeSubtree, which builds its own tree from the shards
// for a reader that needs one; in ModeXSeek, the projection, which is a small
// tree of its own, built from the shards (search.WholeProjection).
func (sc *Corpus) WholeResult(query string, opts search.Options, lca int32) *search.Result {
	if opts.Mode == search.ModeXSeek {
		return search.WholeProjection(sc.Whole(), lca, query, sc.cls)
	}
	return search.Whole(sc.Whole(), lca, query)
}

// Positions returns the global positions of a result's anchor and LCA: where
// a whole-document answer places them (index.Whole).
func (sc *Corpus) Positions(r *search.Result) (anchor, lca int32) {
	if w, at := r.Whole(); w != nil {
		return 0, at
	}
	w := sc.Whole()
	i := slices.IndexFunc(w.Parts(), func(ix *index.Index) bool { return ix.Document().ByOrd(r.Anchor.Ord) == r.Anchor })
	return w.Global(i, int32(r.Anchor.Ord)), w.Global(i, int32(r.LCA.Ord))
}

// ResultsAt rebuilds query's results from their anchors' and LCAs' global
// positions (Positions), as a whole-document answer placed them: a result
// anchored at the root is WholeResult; any other lies inside one shard and is
// that shard engine's result (search.Engine.ResultAt), each shard's query
// lists resolved once. Positions that are not a result are an error.
func (sc *Corpus) ResultsAt(query string, opts search.Options, anchors, lcas []int32) ([]*search.Result, error) {
	w := sc.Whole()
	out := make([]*search.Result, len(anchors))
	engines := make([]*search.Engine, len(sc.shards))
	evs := make([]*search.Evaluation, len(sc.shards))
	for k, a := range anchors {
		if a < 0 || int(a) >= w.Len() || lcas[k] < a || int(lcas[k]) >= w.Len() {
			return nil, fmt.Errorf("shard: no result anchored at %d for the LCA at %d", a, lcas[k])
		}
		i, local := w.Locate(a)
		j, lca := w.Locate(lcas[k])
		if engines[j] == nil {
			engines[j] = sc.shards[j].Engine(opts)
		}
		if a == 0 {
			if !engines[j].Anchors(0, int(lca)) {
				return nil, fmt.Errorf("shard: no result anchored at the root for the LCA at %d", lcas[k])
			}
			out[k] = sc.WholeResult(query, opts, lcas[k])
			continue
		}
		if i != j {
			return nil, fmt.Errorf("shard: no result anchored at %d for the LCA at %d", a, lcas[k])
		}
		var err error
		if evs[i] == nil {
			if evs[i], err = engines[i].Lists(query); err != nil {
				return nil, err
			}
		}
		if out[k], err = engines[i].ResultAt(evs[i], int(local), int(lca)); err != nil {
			return nil, err
		}
	}
	return out, nil
}
