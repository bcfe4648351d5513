package selector

import (
	"testing"
)

func TestGreedyRatioRespectsBound(t *testing.T) {
	fx := figure1(t)
	for _, bound := range []int{0, 3, 6, 13, 30} {
		s := GreedyRatio(fx.doc, fx.il, fx.stats, bound)
		if s.Edges > bound {
			t.Errorf("bound %d: edges %d", bound, s.Edges)
		}
		elems, connected := countElements(s.Root)
		if !connected || elems-1 != s.Edges {
			t.Errorf("bound %d: accounting broken (%d elems, %d edges)", bound, elems, s.Edges)
		}
		if len(s.Covered)+len(s.Skipped) != fx.il.Len() {
			t.Errorf("bound %d: partition broken", bound)
		}
	}
}

func TestGreedyRatioCoversAtGenerousBound(t *testing.T) {
	fx := figure1(t)
	s := GreedyRatio(fx.doc, fx.il, fx.stats, 50)
	if len(s.Skipped) != 0 {
		t.Errorf("skipped = %v", s.Skipped)
	}
}

// TestGreedyRatioNeverWorseOnCount: on small random fixtures, ratio greedy
// covers at least as many items as... not guaranteed in general — but both
// must stay within the exact optimum. This pins the three-way ordering
// greedy/ratio <= exact.
func TestStrategiesBoundedByExact(t *testing.T) {
	for seed := int64(0); seed < 15; seed++ {
		fx := smallFixture(seed)
		for _, bound := range []int{3, 5} {
			g := Greedy(fx.doc, fx.il, fx.cls, fx.stats, bound)
			r := GreedyRatio(fx.doc, fx.il, fx.stats, bound)
			e := Exact(fx.doc, fx.il, fx.stats, bound, ExactConfig{})
			if len(g.Covered) > len(e.Covered) {
				t.Errorf("seed %d bound %d: greedy %d > exact %d", seed, bound, len(g.Covered), len(e.Covered))
			}
			if len(r.Covered) > len(e.Covered) {
				t.Errorf("seed %d bound %d: ratio %d > exact %d", seed, bound, len(r.Covered), len(e.Covered))
			}
		}
	}
}

func TestGreedyRatioWitnessed(t *testing.T) {
	fx := figure1(t)
	s := GreedyRatio(fx.doc, fx.il, fx.stats, 9)
	w := Witnesses(s.Root, fx.il, fx.cls)
	for _, idx := range s.Covered {
		if !w[idx] {
			t.Errorf("item %d claimed covered but not witnessed", idx)
		}
	}
}
