package bench

import (
	"sort"

	"extract/internal/classify"
	"extract/internal/search"
	"extract/xmltree"
)

// resultsBaseline is subtree-mode result construction as shipped before
// results became views of the corpus document: every LCA's anchor subtree is
// deep-copied and re-finalized as a document of its own, its matches are
// filtered linearly out of every posting of every keyword, and only then is
// a duplicate anchor dropped; the survivors are sorted by anchor order. FROZEN — the "before" side of
// result_before_ns and the reference the view construction is tested
// against; it must not follow search.Engine.Results.
func resultsBaseline(ev *search.Evaluation, cls *classify.Classification) []*search.Result {
	var results []*search.Result
	seen := make(map[*xmltree.Node]bool)
	for _, lca := range ev.LCAs {
		anchor := lca
		if e := cls.EntityOwner(lca); e != nil {
			anchor = e
		}
		matches := make(map[string][]*xmltree.Node, len(ev.Keywords))
		for i, kw := range ev.Keywords {
			for _, m := range ev.Lists[i].Nodes {
				if anchor.ContainsOrSelf(m) {
					matches[kw] = append(matches[kw], m)
				}
			}
		}
		root := xmltree.DeepCopy(anchor)
		r := &search.Result{
			Root:    root,
			Doc:     xmltree.NewDocument(root),
			Anchor:  anchor,
			LCA:     lca,
			Matches: matches,
		}
		if seen[anchor] {
			continue
		}
		seen[anchor] = true
		results = append(results, r)
	}
	sort.Slice(results, func(i, j int) bool {
		return results[i].Anchor.Ord < results[j].Anchor.Ord
	})
	return results
}
