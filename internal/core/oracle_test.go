package core_test

import (
	"sort"
	"strings"

	"extract/internal/classify"
	"extract/internal/features"
	"extract/internal/ilist"
	"extract/internal/index"
	"extract/internal/keys"
	"extract/internal/selector"
	"extract/xmltree"
)

// The oracle: the snippet pipeline stated the slow, obvious way — a walk per
// stage, a parent climb per node, string-keyed maps, a whole-tree projection
// — with nothing shared with the pipeline under test: no symbol ids, no
// interval arithmetic, no recorded label facts, no pooled scratch. It is what
// the pipeline's scores and choices are defined to be; the property and fuzz
// tests hold every stage's output to it.

type oracleStats struct {
	order     []features.Feature // first-seen order: a feature's index is its id
	n         map[features.Feature]int
	instances map[features.Feature][]*xmltree.Node
	typeN     map[features.Type]int
	typeD     map[features.Type]int

	entityLabels []string
	firstEntity  map[string]*xmltree.Node
}

func oracleCollect(root *xmltree.Node, cls *classify.Classification) *oracleStats {
	s := &oracleStats{
		n:           map[features.Feature]int{},
		instances:   map[features.Feature][]*xmltree.Node{},
		typeN:       map[features.Type]int{},
		typeD:       map[features.Type]int{},
		firstEntity: map[string]*xmltree.Node{},
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
			s.typeD[f.Type]++
		}
		s.n[f]++
		s.typeN[f.Type]++
		s.instances[f] = append(s.instances[f], m)
		return true
	})
	return s
}

func (s *oracleStats) dominance(f features.Feature) float64 {
	if s.n[f] == 0 {
		return 0
	}
	return float64(s.n[f]) / (float64(s.typeN[f.Type]) / float64(s.typeD[f.Type]))
}

func (s *oracleStats) dominant() []features.Scored {
	var out []features.Scored
	for id, f := range s.order {
		if s.typeD[f.Type] == 1 || s.dominance(f) > 1 {
			out = append(out, features.Scored{Feature: f, Score: s.dominance(f), ID: int32(id)})
		}
	}
	sort.SliceStable(out, func(i, j int) bool {
		if out[i].Score != out[j].Score {
			return out[i].Score > out[j].Score
		}
		fi, fj := out[i].Feature, out[j].Feature
		if fi.Entity != fj.Entity {
			return fi.Entity < fj.Entity
		}
		if fi.Attr != fj.Attr {
			return fi.Attr < fj.Attr
		}
		return fi.Value < fj.Value
	})
	return out
}

func oracleIList(root *xmltree.Node, keywords []string, cls *classify.Classification,
	km *keys.Keys, stats *oracleStats) *ilist.IList {

	il := &ilist.IList{}
	have := map[string]bool{}
	add := func(it ilist.Item) {
		k := strings.ToLower(strings.TrimSpace(it.Text))
		if k == "" || have[k] {
			return
		}
		have[k] = true
		il.Items = append(il.Items, it)
	}
	for _, kw := range keywords {
		add(ilist.Item{Kind: ilist.Keyword, Text: kw})
	}
	sorted := append([]string(nil), stats.entityLabels...)
	sort.Strings(sorted)
	for _, l := range sorted {
		add(ilist.Item{Kind: ilist.EntityName, Text: l})
	}
	il.ReturnEntities = oracleReturnEntities(root, keywords, cls)
	for _, re := range il.ReturnEntities {
		inst := stats.firstEntity[re]
		if inst == nil {
			continue
		}
		attr, value, ok := km.KeyValueOf(cls, inst)
		if !ok || value == "" {
			continue
		}
		il.KeyAttr, il.KeyValue = attr, value
		f := features.Feature{Type: features.Type{Entity: re, Attr: attr}, Value: value}
		id := -1
		for i, g := range stats.order {
			if g == f {
				id = i
			}
		}
		add(ilist.Item{Kind: ilist.ResultKey, Text: value, Feature: f, FeatureID: int32(id)})
		break
	}
	for _, d := range stats.dominant() {
		add(ilist.Item{Kind: ilist.DominantFeature, Text: d.Feature.Value, Feature: d.Feature, FeatureID: d.ID, Score: d.Score})
	}
	return il
}

func oracleReturnEntities(root *xmltree.Node, keywords []string, cls *classify.Classification) []string {
	kwSet := map[string]bool{}
	for _, k := range keywords {
		kwSet[strings.ToLower(k)] = true
	}
	tokenHit := func(s string) bool {
		for _, t := range index.Tokenize(s) {
			if kwSet[t] {
				return true
			}
		}
		return false
	}
	var byName, byAttr, highest []string
	seenName, seenAttr, seenHigh := map[string]bool{}, map[string]bool{}, map[string]bool{}
	var walk func(n *xmltree.Node, hasEntityAncestor bool)
	walk = func(n *xmltree.Node, hasEntityAncestor bool) {
		isEnt := cls.IsEntity(n)
		if isEnt {
			if !hasEntityAncestor && !seenHigh[n.Label] {
				seenHigh[n.Label] = true
				highest = append(highest, n.Label)
			}
			if !seenName[n.Label] && tokenHit(n.Label) {
				seenName[n.Label] = true
				byName = append(byName, n.Label)
			}
			if !seenAttr[n.Label] {
				for _, c := range n.Children {
					if cls.IsAttribute(c) && tokenHit(c.Label) {
						seenAttr[n.Label] = true
						byAttr = append(byAttr, n.Label)
						break
					}
				}
			}
		}
		for _, c := range n.Children {
			walk(c, hasEntityAncestor || isEnt)
		}
	}
	walk(root, false)
	var out []string
	used := map[string]bool{}
	for _, l := range append(byName, byAttr...) {
		if !used[l] {
			used[l] = true
			out = append(out, l)
		}
	}
	if len(out) > 0 {
		return out
	}
	return highest
}

// oracleInstance is one way to witness an item: an element a, plus
// optionally the text child b whose value must display.
type oracleInstance struct{ a, b *xmltree.Node }

func (in oracleInstance) deepest() *xmltree.Node {
	if in.b != nil {
		return in.b
	}
	return in.a
}

type oracleTracker struct {
	cls    *classify.Classification
	root   *xmltree.Node
	inT    map[*xmltree.Node]bool
	tokens map[string]bool
	labels map[string]bool
	feats  map[features.Feature]bool
}

func newOracleTracker(cls *classify.Classification, root *xmltree.Node) *oracleTracker {
	tr := &oracleTracker{
		cls: cls, root: root,
		inT:    map[*xmltree.Node]bool{},
		tokens: map[string]bool{},
		labels: map[string]bool{},
		feats:  map[features.Feature]bool{},
	}
	tr.add(root)
	return tr
}

func (tr *oracleTracker) clone() *oracleTracker {
	c := newOracleTracker(tr.cls, tr.root)
	for k := range tr.inT {
		c.inT[k] = true
	}
	for k := range tr.tokens {
		c.tokens[k] = true
	}
	for k := range tr.labels {
		c.labels[k] = true
	}
	for k := range tr.feats {
		c.feats[k] = true
	}
	return c
}

func (tr *oracleTracker) add(n *xmltree.Node) {
	if tr.inT[n] {
		return
	}
	tr.inT[n] = true
	if n.IsElement() {
		tr.labels[n.Label] = true
		for _, t := range index.Tokenize(n.Label) {
			tr.tokens[t] = true
		}
		if n.HasSingleTextChild() {
			tr.add(n.Children[0])
		}
		return
	}
	for _, t := range index.Tokenize(n.Value) {
		tr.tokens[t] = true
	}
	if p := n.Parent; n != tr.root && p.HasSingleTextChild() {
		if owner := tr.cls.EntityOwnerWithin(p, tr.root); owner != nil {
			tr.feats[features.Feature{
				Type:  features.Type{Entity: owner.Label, Attr: p.Label},
				Value: n.Value,
			}] = true
		}
	}
}

func (tr *oracleTracker) covers(it ilist.Item) bool {
	switch it.Kind {
	case ilist.Keyword:
		return tr.tokens[it.Text]
	case ilist.EntityName:
		return tr.labels[it.Text]
	default:
		return tr.feats[it.Feature]
	}
}

// cost climbs from the instance's deepest node to the tree, with no pruning.
func (tr *oracleTracker) cost(inst oracleInstance) (int, []*xmltree.Node) {
	var path []*xmltree.Node
	cost := 0
	for m := inst.deepest(); !tr.inT[m]; m = m.Parent {
		path = append(path, m)
		if m.IsElement() {
			cost++
		}
	}
	return cost, path
}

func (tr *oracleTracker) addAll(path []*xmltree.Node) {
	for i := len(path) - 1; i >= 0; i-- {
		tr.add(path[i])
	}
}

// oracleInstances lists the ways to witness an item, in document order:
// per element its label, then its text children in order.
func oracleInstances(root *xmltree.Node, cls *classify.Classification, stats *oracleStats, it ilist.Item) []oracleInstance {
	var out []oracleInstance
	switch it.Kind {
	case ilist.Keyword:
		root.Walk(func(n *xmltree.Node) bool {
			if !n.IsElement() {
				return true
			}
			if index.MatchesKeyword(n.Label, it.Text) {
				out = append(out, oracleInstance{a: n})
			}
			for _, c := range n.Children {
				if c.IsText() && index.MatchesKeyword(c.Value, it.Text) {
					out = append(out, oracleInstance{a: n, b: c})
				}
			}
			return true
		})
	case ilist.EntityName:
		root.Walk(func(n *xmltree.Node) bool {
			if cls.IsEntity(n) && n.Label == it.Text {
				out = append(out, oracleInstance{a: n})
			}
			return true
		})
	default:
		for _, n := range stats.instances[it.Feature] {
			out = append(out, oracleInstance{a: n, b: n.Children[0]})
		}
	}
	return out
}

func oracleSnippet(root *xmltree.Node, tr *oracleTracker, covered, skipped []int, edges int) *selector.Snippet {
	sort.Ints(covered)
	sort.Ints(skipped)
	return &selector.Snippet{Root: xmltree.ProjectSet(root, tr.inT), Covered: covered, Skipped: skipped, Edges: edges}
}

func oracleGreedy(root *xmltree.Node, il *ilist.IList, cls *classify.Classification, stats *oracleStats, bound int) *selector.Snippet {
	tr := newOracleTracker(cls, root)
	edges := 0
	var covered, skipped []int
	for idx, it := range il.Items {
		if tr.covers(it) {
			covered = append(covered, idx)
			continue
		}
		bestCost := -1
		var bestPath []*xmltree.Node
		for _, inst := range oracleInstances(root, cls, stats, it) {
			if c, path := tr.cost(inst); bestCost < 0 || c < bestCost {
				bestCost, bestPath = c, path
			}
		}
		if bestCost >= 0 && edges+bestCost <= bound {
			tr.addAll(bestPath)
			edges += bestCost
			covered = append(covered, idx)
		} else {
			skipped = append(skipped, idx)
		}
	}
	return oracleSnippet(root, tr, covered, skipped, edges)
}

func oracleGreedyRatio(root *xmltree.Node, il *ilist.IList, cls *classify.Classification, stats *oracleStats, bound int) *selector.Snippet {
	tr := newOracleTracker(cls, root)
	edges := 0
	remaining := map[int]bool{}
	for i := range il.Items {
		remaining[i] = true
	}
	var covered []int
	markCovered := func() {
		for i := range il.Items {
			if remaining[i] && tr.covers(il.Items[i]) {
				delete(remaining, i)
				covered = append(covered, i)
			}
		}
	}
	markCovered()
	for len(remaining) > 0 {
		bestIdx, bestCost := -1, 0
		bestRatio := -1.0
		var bestPath []*xmltree.Node
		for idx := range remaining {
			for _, inst := range oracleInstances(root, cls, stats, il.Items[idx]) {
				c, path := tr.cost(inst)
				if edges+c > bound {
					continue
				}
				ratio := 1e18
				if c > 0 {
					ratio = (1.0 / float64(1+idx)) / float64(c)
				}
				if ratio > bestRatio || (ratio == bestRatio && bestIdx >= 0 && idx < bestIdx) {
					bestRatio, bestIdx, bestCost, bestPath = ratio, idx, c, path
				}
			}
		}
		if bestIdx < 0 {
			break
		}
		tr.addAll(bestPath)
		edges += bestCost
		delete(remaining, bestIdx)
		covered = append(covered, bestIdx)
		markCovered()
	}
	var skipped []int
	for i := range il.Items {
		if remaining[i] {
			skipped = append(skipped, i)
		}
	}
	return oracleSnippet(root, tr, covered, skipped, edges)
}

func oracleExact(root *xmltree.Node, il *ilist.IList, cls *classify.Classification, stats *oracleStats,
	bound int, cfg selector.ExactConfig) *selector.Snippet {

	type best struct {
		count            int
		weight           float64
		tr               *oracleTracker
		covered, skipped []int
		edges            int
	}
	b := best{count: -1}
	expansions := 0
	var rec func(idx int, tr *oracleTracker, edges int, covered, skipped []int)
	rec = func(idx int, tr *oracleTracker, edges int, covered, skipped []int) {
		expansions++
		if expansions > cfg.MaxExpansions || len(covered)+(len(il.Items)-idx) < b.count {
			return
		}
		if idx == len(il.Items) {
			w := 0.0
			for _, i := range covered {
				w += 1.0 / float64(1+i)
			}
			if len(covered) > b.count || (len(covered) == b.count && w > b.weight) {
				b = best{len(covered), w, tr.clone(), append([]int(nil), covered...), append([]int(nil), skipped...), edges}
			}
			return
		}
		it := il.Items[idx]
		if tr.covers(it) {
			rec(idx+1, tr, edges, append(covered, idx), skipped)
			return
		}
		insts := oracleInstances(root, cls, stats, it)
		if len(insts) > cfg.MaxInstancesPerItem {
			insts = insts[:cfg.MaxInstancesPerItem]
		}
		for _, inst := range insts {
			c, path := tr.cost(inst)
			if edges+c > bound {
				continue
			}
			child := tr.clone()
			child.addAll(path)
			rec(idx+1, child, edges+c, append(covered, idx), skipped)
		}
		rec(idx+1, tr, edges, covered, append(skipped, idx))
	}
	rec(0, newOracleTracker(cls, root), 0, nil, nil)
	if b.count < 0 {
		return oracleGreedy(root, il, cls, stats, bound)
	}
	return oracleSnippet(root, b.tr, b.covered, b.skipped, b.edges)
}
