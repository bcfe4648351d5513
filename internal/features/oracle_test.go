package features

import (
	"math"
	"reflect"
	"sort"
	"testing"

	"extract/internal/classify"
	"extract/xmltree"
)

// oracle is the brute-force statement of what Collect must gather, the
// reference every collector test compares against: a plain walk, a parent
// climb per node for its entity owner, string-keyed maps throughout. It
// shares nothing with the Collector — no symbol ids, no interval arithmetic.
type oracle struct {
	order     []Feature // first-seen order
	n         map[Feature]int
	instances map[Feature][]*xmltree.Node
	typeN     map[Type]int
	typeD     map[Type]int

	entityLabels []string // first-seen order
	entityInst   map[string][]*xmltree.Node
	highest      []string          // first-seen order
	entAttrs     map[[2]string]int // (entity, attribute child) -> first instance's Ord
}

func bruteCollect(root *xmltree.Node, cls *classify.Classification) *oracle {
	o := &oracle{
		n:          map[Feature]int{},
		instances:  map[Feature][]*xmltree.Node{},
		typeN:      map[Type]int{},
		typeD:      map[Type]int{},
		entityInst: map[string][]*xmltree.Node{},
		entAttrs:   map[[2]string]int{},
	}
	if root == nil {
		return o
	}
	root.Walk(func(m *xmltree.Node) bool {
		if cls.IsEntity(m) {
			if o.entityInst[m.Label] == nil {
				o.entityLabels = append(o.entityLabels, m.Label)
			}
			o.entityInst[m.Label] = append(o.entityInst[m.Label], m)
			above := m != root && cls.EntityOwnerWithin(m.Parent, root) != nil
			if !above && !contains(o.highest, m.Label) {
				o.highest = append(o.highest, m.Label)
			}
			for _, c := range m.Children {
				if cls.IsAttribute(c) {
					k := [2]string{m.Label, c.Label}
					if first, ok := o.entAttrs[k]; !ok || m.Ord < first {
						o.entAttrs[k] = m.Ord
					}
				}
			}
		}
		if !cls.IsAttribute(m) || !m.HasSingleTextChild() {
			return true
		}
		owner := cls.EntityOwnerWithin(m, root)
		if owner == nil {
			return true
		}
		f := Feature{Type: Type{Entity: owner.Label, Attr: m.Label}, Value: m.TextValue()}
		if o.n[f] == 0 {
			o.order = append(o.order, f)
			o.typeD[f.Type]++
		}
		o.n[f]++
		o.typeN[f.Type]++
		o.instances[f] = append(o.instances[f], m)
		return true
	})
	return o
}

func contains(list []string, s string) bool {
	for _, l := range list {
		if l == s {
			return true
		}
	}
	return false
}

func (o *oracle) dominance(f Feature) float64 {
	if o.n[f] == 0 {
		return 0
	}
	return float64(o.n[f]) / (float64(o.typeN[f.Type]) / float64(o.typeD[f.Type]))
}

func (o *oracle) isDominant(f Feature) bool {
	return o.n[f] > 0 && (o.typeD[f.Type] == 1 || o.dominance(f) > 1)
}

// dominant is Dominant by the book: filter, then sort by score and name.
func (o *oracle) dominant() []Scored {
	var out []Scored
	for id, f := range o.order {
		if o.isDominant(f) {
			out = append(out, Scored{Feature: f, Score: o.dominance(f), ID: int32(id)})
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

// resolve turns an instance list into the nodes at its positions.
func resolve(s *Stats, positions []int32) []*xmltree.Node {
	out := make([]*xmltree.Node, len(positions))
	for i, pos := range positions {
		out[i] = s.Node(pos)
	}
	return out
}

// statsEqual holds the complete observable surface of a Stats — by name and
// by id — to the oracle's.
func statsEqual(t testing.TB, name string, got *Stats, want *oracle) {
	t.Helper()
	if !reflect.DeepEqual(got.Features(), append([]Feature{}, want.order...)) {
		t.Fatalf("%s: features differ:\n%v\nvs\n%v", name, got.Features(), want.order)
	}
	types := map[Type]bool{}
	for _, ty := range got.Types() {
		types[ty] = true
		if got.TypeN(ty) != want.typeN[ty] || got.TypeD(ty) != want.typeD[ty] {
			t.Fatalf("%s: type %v: N%d D%d vs N%d D%d", name, ty,
				got.TypeN(ty), got.TypeD(ty), want.typeN[ty], want.typeD[ty])
		}
	}
	if len(types) != len(want.typeN) {
		t.Fatalf("%s: types differ: %v vs %v", name, got.Types(), want.typeN)
	}
	for id, f := range want.order {
		id := int32(id)
		if got.N(f) != want.n[f] {
			t.Fatalf("%s: N(%v) = %d vs %d", name, f, got.N(f), want.n[f])
		}
		if math.Float64bits(got.Dominance(f)) != math.Float64bits(want.dominance(f)) {
			t.Fatalf("%s: DS(%v) = %v vs %v", name, f, got.Dominance(f), want.dominance(f))
		}
		if got.IsDominant(f) != want.isDominant(f) {
			t.Fatalf("%s: dominant(%v) differs", name, f)
		}
		if !reflect.DeepEqual(got.Instances(f), want.instances[f]) {
			t.Fatalf("%s: instances(%v) differ", name, f)
		}
		if gid, ok := got.FeatureID(f); !ok || gid != id || got.Feature(id) != f ||
			!reflect.DeepEqual(resolve(got, got.InstancesOf(id)), want.instances[f]) {
			t.Fatalf("%s: feature %v is not id %d by every accessor", name, f, id)
		}
		attr := want.instances[f][0]
		owner := got.FirstEntity(f.Entity)
		if at, ok := got.FeatureAt(owner, attr); !ok || at != id {
			t.Fatalf("%s: FeatureAt(%v, %v) = %d, %v; want %d", name, owner, attr, at, ok, id)
		}
		if e, a, v := got.FeatureSyms(id); e != owner.Sym || a != attr.Sym || v != attr.Children[0].Sym {
			t.Fatalf("%s: FeatureSyms(%d) = %d %d %d", name, id, e, a, v)
		}
	}
	if !reflect.DeepEqual(got.Dominant(), want.dominant()) {
		t.Fatalf("%s: dominant sets differ:\n%v\nvs\n%v", name, got.Dominant(), want.dominant())
	}
	if !reflect.DeepEqual(got.EntityLabels(), want.entityLabels) {
		t.Fatalf("%s: entity labels differ: %v vs %v", name, got.EntityLabels(), want.entityLabels)
	}
	for e, l := range want.entityLabels {
		inst := want.entityInst[l]
		if got.FirstEntity(l) != inst[0] || !reflect.DeepEqual(resolve(got, got.EntityInstances(e)), inst) ||
			got.EntitySyms()[e] != inst[0].Sym {
			t.Fatalf("%s: instances of entity %q differ", name, l)
		}
	}
	if !reflect.DeepEqual(got.HighestEntities(), want.highest) {
		t.Fatalf("%s: highest entities differ: %v vs %v", name, got.HighestEntities(), want.highest)
	}
	pairs := map[[2]string]int{}
	for _, p := range got.EntityAttrs() {
		pairs[[2]string{p.Entity, p.Attr}] = p.First
	}
	if len(pairs) != len(got.EntityAttrs()) || !reflect.DeepEqual(pairs, want.entAttrs) {
		t.Fatalf("%s: entity/attribute pairs differ: %v vs %v", name, got.EntityAttrs(), want.entAttrs)
	}
}
