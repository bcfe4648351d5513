// Package metrics scores snippets against the paper's four goals:
// representativeness and relevance as IList coverage (which
// selector.CoverageOf computes), distinguishability as
// the fraction of pairwise-distinct snippets across a query's results, and
// self-containment as the presence of the return entity's name and key.
// The same witness rules (selector.Witnesses) score eXtract and baseline
// snippets, so comparisons are apples-to-apples.
package metrics

import (
	"extract/internal/classify"
	"extract/internal/ilist"
	"extract/internal/index"
	"extract/internal/selector"
	"extract/xmltree"
)

// KeywordCoverage returns the fraction of query keywords visible in the
// tree (labels or displayed values).
func KeywordCoverage(root *xmltree.Node, keywords []string) float64 {
	if len(keywords) == 0 {
		return 1
	}
	toks := make(map[string]bool)
	if root != nil {
		root.Walk(func(n *xmltree.Node) bool {
			switch {
			case n.IsElement():
				for _, t := range index.Tokenize(n.Label) {
					toks[t] = true
				}
			case n.IsText():
				for _, t := range index.Tokenize(n.Value) {
					toks[t] = true
				}
			}
			return true
		})
	}
	hit := 0
	for _, k := range keywords {
		for _, t := range index.Tokenize(k) {
			if toks[t] {
				hit++
				break
			}
		}
	}
	return float64(hit) / float64(len(keywords))
}

// SelfContained reports whether the snippet shows a return entity's label
// and the result key — the paper's self-containment and distinguishability
// goals for a single snippet.
func SelfContained(root *xmltree.Node, il *ilist.IList, cls *classify.Classification) bool {
	if root == nil {
		return false
	}
	if len(il.ReturnEntities) == 0 {
		return false
	}
	w := selector.Witnesses(root, il, cls)
	entityShown, keyShown := false, il.KeyValue == ""
	for i, it := range il.Items {
		if !w[i] {
			continue
		}
		if it.Kind == ilist.EntityName || it.Kind == ilist.Keyword {
			for _, re := range il.ReturnEntities {
				if it.Text == re {
					entityShown = true
				}
			}
		}
		if it.Kind == ilist.ResultKey {
			keyShown = true
		}
	}
	// The return entity may also be visible as the snippet root label
	// without being an IList item of its own.
	for _, re := range il.ReturnEntities {
		if root.Label == re {
			entityShown = true
		}
	}
	return entityShown && keyShown
}

// Distinguishability returns the fraction of pairwise-distinct snippet
// trees among a query's results, comparing canonical inline renderings.
// One result scores 1; n identical snippets score 1/n.
func Distinguishability(snippets []*xmltree.Node) float64 {
	if len(snippets) == 0 {
		return 1
	}
	seen := make(map[string]bool, len(snippets))
	for _, s := range snippets {
		if s == nil {
			seen[""] = true
			continue
		}
		seen[xmltree.RenderInline(s)] = true
	}
	return float64(len(seen)) / float64(len(snippets))
}

// DistinguishabilityTexts is Distinguishability over flat text snippets.
func DistinguishabilityTexts(texts []string) float64 {
	if len(texts) == 0 {
		return 1
	}
	seen := make(map[string]bool, len(texts))
	for _, t := range texts {
		seen[t] = true
	}
	return float64(len(seen)) / float64(len(texts))
}
