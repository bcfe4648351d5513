package selector

import (
	"extract/internal/classify"
	"extract/internal/features"
	"extract/internal/ilist"
	"extract/internal/index"
	"extract/xmltree"
)

// Witnesses reports, for each IList item, whether the given tree (a snippet
// from any algorithm, or a whole result) makes it visible: the keyword
// appears in a label or displayed value, the entity label is present, the
// feature's attribute occurs with its value under the right entity. Metrics
// use this to score baseline snippets with the same rules as eXtract's own.
// The tree need not be finalized, so the evidence is gathered by name.
func Witnesses(root *xmltree.Node, il *ilist.IList, cls *classify.Classification) []bool {
	out := make([]bool, il.Len())
	if root == nil {
		return out
	}
	tokens := make(map[string]bool)
	labels := make(map[string]bool)
	feats := make(map[features.Feature]bool)
	see := func(t string) bool { tokens[t] = true; return true }
	root.Walk(func(n *xmltree.Node) bool {
		if n.IsElement() {
			labels[n.Label] = true
			index.EachToken(n.Label, see)
			return true
		}
		index.EachToken(n.Value, see)
		if p := n.Parent; n != root && p != nil && p.HasSingleTextChild() {
			if owner := cls.EntityOwnerWithin(p, root); owner != nil {
				feats[features.Feature{
					Type:  features.Type{Entity: owner.Label, Attr: p.Label},
					Value: n.Value,
				}] = true
			}
		}
		return true
	})
	for i, it := range il.Items {
		switch it.Kind {
		case ilist.Keyword:
			out[i] = tokens[it.Text]
		case ilist.EntityName:
			out[i] = labels[it.Text]
		case ilist.ResultKey, ilist.DominantFeature:
			out[i] = feats[it.Feature]
		}
	}
	return out
}

// CoverageOf returns the fraction of IList items the tree witnesses, and
// the rank-weighted fraction (weights 1/(1+rank), normalized). An empty
// IList scores 1 on both.
func CoverageOf(root *xmltree.Node, il *ilist.IList, cls *classify.Classification) (frac, weighted float64) {
	if il.Len() == 0 {
		return 1, 1
	}
	w := Witnesses(root, il, cls)
	var hit, total, whit, wtotal float64
	for i, ok := range w {
		weight := 1.0 / float64(1+i)
		total++
		wtotal += weight
		if ok {
			hit++
			whit += weight
		}
	}
	return hit / total, whit / wtotal
}
