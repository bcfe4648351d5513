package bench

import (
	"strconv"
	"testing"
)

func TestE12Shape(t *testing.T) {
	tb := E12SelectorStrategies(10, []int{3, 5})
	t.Log("\n" + tb.Render())
	if len(tb.Rows) != 2 {
		t.Fatalf("rows = %d", len(tb.Rows))
	}
	for _, row := range tb.Rows {
		// Columns: bound, rank cov, rank wcov, ratio cov, ratio wcov,
		// exact cov, exact wcov. Exact dominates both greedies on
		// count coverage; all values are valid fractions.
		vals := make([]float64, 6)
		for i := 0; i < 6; i++ {
			v, err := strconv.ParseFloat(row[i+1], 64)
			if err != nil || v < 0 || v > 1 {
				t.Fatalf("bad cell %q in %v", row[i+1], row)
			}
			vals[i] = v
		}
		rankCov, ratioCov, exactCov := vals[0], vals[2], vals[4]
		const eps = 1e-9
		if rankCov > exactCov+eps {
			t.Errorf("rank cov %f > exact %f", rankCov, exactCov)
		}
		if ratioCov > exactCov+eps {
			t.Errorf("ratio cov %f > exact %f", ratioCov, exactCov)
		}
	}
}
