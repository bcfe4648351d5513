package extract

import (
	"fmt"
	"strings"
	"testing"
)

func manyStores(t *testing.T, n int) *Corpus {
	t.Helper()
	var b strings.Builder
	b.WriteString("<stores>")
	for i := 0; i < n; i++ {
		fmt.Fprintf(&b, `<store><name>Store %d</name><state>Texas</state>
		<merchandises><clothes><category>cat%d</category></clothes></merchandises></store>`, i, i%5)
	}
	b.WriteString("</stores>")
	c, err := LoadString(b.String())
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// TestQueryParallelMatchesSequential: the fan-out path returns the same
// hits in the same order as sequential generation.
func TestQueryParallelMatchesSequential(t *testing.T) {
	c := manyStores(t, 20)
	hits, err := c.Query("store texas", 4) // ≥4 results triggers fan-out
	if err != nil {
		t.Fatal(err)
	}
	if len(hits) != 20 {
		t.Fatalf("hits = %d", len(hits))
	}
	for i, h := range hits {
		if h == nil || h.Snippet == nil {
			t.Fatalf("hit %d missing", i)
		}
		wantKey := fmt.Sprintf("Store %d", i)
		if h.Snippet.ResultKey() != wantKey {
			t.Errorf("hit %d key = %q, want %q (order broken?)", i, h.Snippet.ResultKey(), wantKey)
		}
		if h.Snippet.Edges() > 4 {
			t.Errorf("hit %d edges = %d", i, h.Snippet.Edges())
		}
	}
}
