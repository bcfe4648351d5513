package bench

import "extract/internal/selector"

// E12SelectorStrategies is the Instance Selector's design-choice ablation:
// the paper's rank-order greedy vs a benefit/cost ratio greedy vs the exact
// optimum, on small random results where the exact solver is feasible. Reported per bound: average covered
// items and average rank-weighted coverage.
func E12SelectorStrategies(cases int, bounds []int) *Table {
	if cases <= 0 {
		cases = 30
	}
	if len(bounds) == 0 {
		bounds = []int{3, 5, 7}
	}
	t := &Table{
		ID:    "E12",
		Title: "Instance selector ablation: rank-order greedy vs ratio greedy vs exact",
		Columns: []string{"bound",
			"rank cov", "rank wcov",
			"ratio cov", "ratio wcov",
			"exact cov", "exact wcov"},
	}
	for _, b := range bounds {
		var rc, rw, tc, tw, ec, ew float64
		n := 0
		for seed := int64(0); seed < int64(cases); seed++ {
			fx := randomSmallResult(seed)
			if fx.il.Len() == 0 {
				continue
			}
			n++
			g := selector.Greedy(fx.doc, fx.il, fx.cls, fx.stats, b)
			r := selector.GreedyRatio(fx.doc, fx.il, fx.stats, b)
			e := selector.Exact(fx.doc, fx.il, fx.stats, b, selector.ExactConfig{})
			c1, w1 := selector.CoverageOf(g.Root, fx.il, fx.cls)
			c2, w2 := selector.CoverageOf(r.Root, fx.il, fx.cls)
			c3, w3 := selector.CoverageOf(e.Root, fx.il, fx.cls)
			rc, rw = rc+c1, rw+w1
			tc, tw = tc+c2, tw+w2
			ec, ew = ec+c3, ew+w3
		}
		if n == 0 {
			continue
		}
		f := float64(n)
		t.AddRow(b, rc/f, rw/f, tc/f, tw/f, ec/f, ew/f)
	}
	t.Notes = append(t.Notes,
		"expected shape: ratio greedy may trade a high-rank expensive item for cheap low-rank ones (higher raw coverage, lower weighted coverage); the paper's rank-order greedy protects the important items")
	return t
}
