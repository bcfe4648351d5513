// yardstick — never edit.

package bench

import (
	"extract/internal/classify"
	"extract/internal/features"
	"extract/xmltree"
)

// baselineStats is what collectBaseline gathers: the feature statistics in
// string-keyed maps, as they were kept before the hot path was flattened.
type baselineStats struct {
	order     []features.Feature // first-seen order
	n         map[features.Feature]int
	instances map[features.Feature][]*xmltree.Node
	typeN     map[features.Type]int
	typeD     map[features.Type]int

	entityLabels []string
	firstEntity  map[string]*xmltree.Node
}

// collectBaseline is feature collection as shipped before the flat-array
// rewrite: a recursive walk with a per-node parent climb for the entity owner
// and three-string struct map keys per occurrence. FROZEN — the "before"
// side of collect_before_ns and snippet_before_ns, held to features.Collect
// by TestCollectBaselineMatchesCollect; it must not follow the features
// package.
func collectBaseline(root *xmltree.Node, cls *classify.Classification) *baselineStats {
	s := &baselineStats{
		n:           make(map[features.Feature]int),
		instances:   make(map[features.Feature][]*xmltree.Node),
		typeN:       make(map[features.Type]int),
		typeD:       make(map[features.Type]int),
		firstEntity: make(map[string]*xmltree.Node),
	}
	if root == nil {
		return s
	}
	root.Walk(func(m *xmltree.Node) bool {
		if cls.IsEntity(m) {
			if _, seen := s.firstEntity[m.Label]; !seen {
				s.firstEntity[m.Label] = m
				s.entityLabels = append(s.entityLabels, m.Label)
			}
		}
		if !cls.IsAttribute(m) || !m.HasSingleTextChild() {
			return true
		}
		owner := cls.EntityOwnerWithin(m, root)
		if owner == nil {
			return true
		}
		f := features.Feature{Type: features.Type{Entity: owner.Label, Attr: m.Label}, Value: m.TextValue()}
		if s.n[f] == 0 {
			s.order = append(s.order, f)
		}
		s.n[f]++
		s.instances[f] = append(s.instances[f], m)
		return true
	})
	for _, f := range s.order {
		s.typeN[f.Type] += s.n[f]
		s.typeD[f.Type]++
	}
	return s
}
