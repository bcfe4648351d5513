package bench

import (
	"strings"
	"testing"
)

func TestE1TableContent(t *testing.T) {
	tb := E1IList()
	t.Log("\n" + tb.Render())
	if len(tb.Rows) != 12 {
		t.Fatalf("E1 rows = %d, want 12 (Figure 3 has 12 items)", len(tb.Rows))
	}
	// Rank 7 is Houston with paper DS 3.0.
	if tb.Rows[6][1] != "Houston" || tb.Rows[6][3] != "3.0" {
		t.Errorf("row 7 = %v", tb.Rows[6])
	}
	out := tb.Render()
	if !strings.Contains(out, "Brook Brothers") {
		t.Errorf("render:\n%s", out)
	}
}

func TestE2TableContent(t *testing.T) {
	tb := E2Snippet([]int{6, 13})
	t.Log("\n" + tb.Render())
	if len(tb.Rows) != 2 {
		t.Fatalf("rows = %d", len(tb.Rows))
	}
	// At bound 13 the snippet carries the key, Houston and Texas.
	last := tb.Rows[1]
	if last[4] != "y" || last[5] != "y" || last[6] != "y" {
		t.Errorf("bound-13 row = %v", last)
	}
}

func TestE3TableContent(t *testing.T) {
	tb := E3Demo()
	t.Log("\n" + tb.Render())
	if len(tb.Rows) != 2 {
		t.Fatalf("rows = %v", tb.Rows)
	}
	keys := tb.Rows[0][1] + " " + tb.Rows[1][1]
	if !strings.Contains(keys, "Levis") || !strings.Contains(keys, "ESprit") {
		t.Errorf("keys = %q", keys)
	}
	// Levis snippet mentions jeans; ESprit snippet mentions outwear.
	for _, row := range tb.Rows {
		if strings.Contains(row[1], "Levis") && !strings.Contains(row[3], "jeans") {
			t.Errorf("Levis snippet lacks jeans: %s", row[3])
		}
		if strings.Contains(row[1], "ESprit") && !strings.Contains(row[3], "outwear") {
			t.Errorf("ESprit snippet lacks outwear: %s", row[3])
		}
	}
}

func TestE6Shape(t *testing.T) {
	tb := E6QualityVsBound([]int{6, 16})
	t.Log("\n" + tb.Render())
	for _, row := range tb.Rows {
		ex, bfs, path := row[2], row[4], row[6] // weighted coverages
		if ex < bfs || ex < path {
			t.Errorf("eXtract weighted coverage not dominant: %v", row)
		}
	}
}

func TestE7Shape(t *testing.T) {
	tb := E7GreedyVsExact(8, []int{4})
	t.Log("\n" + tb.Render())
	if len(tb.Rows) != 1 {
		t.Fatalf("rows = %v", tb.Rows)
	}
	// avg ratio within [0.8, 1.0].
	if tb.Rows[0][3] < "0.8" {
		t.Errorf("avg ratio = %s", tb.Rows[0][3])
	}
}

func TestE9Shape(t *testing.T) {
	tb := E9Distinguishability(12)
	t.Log("\n" + tb.Render())
	if len(tb.Rows) != 3 {
		t.Fatalf("rows = %v", tb.Rows)
	}
	ex, bfs := tb.Rows[0][2], tb.Rows[1][2]
	if ex != "1.000" {
		t.Errorf("eXtract distinct fraction = %s, want 1.000", ex)
	}
	if bfs >= ex {
		t.Errorf("BFS %s >= eXtract %s", bfs, ex)
	}
}

func TestE11Shape(t *testing.T) {
	tb := E11DominanceAblation()
	t.Log("\n" + tb.Render())
	if len(tb.Rows) == 0 || tb.Rows[0][1] != "Houston" {
		t.Errorf("dominance top = %v", tb.Rows)
	}
	if tb.Rows[0][3] == "Houston" {
		t.Errorf("raw top should not be Houston: %v", tb.Rows[0])
	}
	rec := E11PlantedRecovery(6)
	t.Log("\n" + rec.Render())
	if rec.Rows[0][1] != "6/6" {
		t.Errorf("dominance recovery = %v", rec.Rows[0])
	}
	if rec.Rows[0][2] == "6/6" {
		t.Errorf("raw recovery should miss: %v", rec.Rows[0])
	}
}

func TestTableRender(t *testing.T) {
	tb := &Table{ID: "X", Title: "t", Columns: []string{"a", "bb"}}
	tb.AddRow(1, 2.5)
	tb.Notes = append(tb.Notes, "n")
	out := tb.Render()
	for _, want := range []string{"== X: t ==", "a", "bb", "2.500", "note: n"} {
		if !strings.Contains(out, want) {
			t.Errorf("render missing %q:\n%s", want, out)
		}
	}
}
