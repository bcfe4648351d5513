package bench

import (
	"fmt"
	"strings"
	"time"

	"extract/internal/baseline"
	"extract/internal/core"
	"extract/internal/features"
	"extract/internal/gen"
	"extract/internal/search"
	"extract/xmltree"
)

// E1IList reproduces Figure 3 and the §2.3 dominance scores: the IList of
// the "Texas apparel retailer" result with each item's kind and score.
func E1IList() *Table {
	c := core.BuildCorpus(gen.Figure1Corpus())
	g := core.NewGenerator(c)
	out := g.ForTree(gen.Figure1Result(), gen.Figure1Query, 13)

	t := &Table{
		ID:      "E1",
		Title:   "IList of the Figure 1 result (paper Figure 3 + §2.3 scores)",
		Columns: []string{"rank", "item", "kind", "DS (paper)", "DS (measured)"},
	}
	paper := map[string]string{
		"Houston": "3.0", "outwear": "2.2", "man": "1.8",
		"casual": "1.4", "suit": "1.2", "woman": "1.1",
	}
	for i, it := range out.IList.Items {
		ds, mds := "-", "-"
		if p, ok := paper[it.Text]; ok {
			ds = p
		}
		if it.Score > 0 {
			mds = fmt.Sprintf("%.2f", it.Score)
		}
		t.AddRow(i+1, it.Text, it.Kind.String(), ds, mds)
	}
	t.Notes = append(t.Notes,
		"paper IList: Texas, apparel, retailer, clothes, store, Brook Brothers, Houston, outwear, man, casual, suit, woman",
		"outwear computes to 2.26 from the published histogram (220/(1070/11)); the paper prints 2.2",
	)
	return t
}

// E2Snippet reproduces Figure 2: the snippet of the Figure 1 result across
// bounds around the Figure 2 size, reporting edges used, items covered and
// the key content checks.
func E2Snippet(bounds []int) *Table {
	if len(bounds) == 0 {
		bounds = []int{4, 6, 8, 10, 13, 16}
	}
	c := core.BuildCorpus(gen.Figure1Corpus())
	g := core.NewGenerator(c)
	result := gen.Figure1Result()

	t := &Table{
		ID:      "E2",
		Title:   "Snippet of the Figure 1 result vs size bound (paper Figure 2)",
		Columns: []string{"bound", "edges", "covered", "of", "has key", "has Houston", "has Texas", "ms"},
	}
	for _, b := range bounds {
		start := time.Now()
		out := g.ForTree(result, gen.Figure1Query, b)
		elapsed := time.Since(start)
		text := xmltree.RenderInline(out.Snippet.Root)
		t.AddRow(b, out.Snippet.Edges,
			len(out.Snippet.Covered), out.IList.Len(),
			yn(strings.Contains(text, "Brook Brothers")),
			yn(strings.Contains(text, "Houston")),
			yn(strings.Contains(text, "Texas")),
			fmt.Sprintf("%.2f", elapsed.Seconds()*1000))
	}
	t.Notes = append(t.Notes,
		"Figure 2's snippet (retailer key, Houston/Texas store, suit/man and outwear/woman/casual clothes) has 13-14 element edges")
	return t
}

// E3Demo reproduces the Figure 5 demo: query "store texas" with bound 6
// over the stores dataset; the snippets must distinguish Levis (jeans,
// man) from ESprit (outwear, woman).
func E3Demo() *Table {
	c := core.BuildCorpus(gen.Figure5Corpus())
	outs, err := core.Pipeline(c, gen.Figure5Query, gen.Figure5Bound,
		search.Options{DistinctAnchors: true})
	t := &Table{
		ID:      "E3",
		Title:   `Demo scenario (paper Figure 5): query "store texas", bound 6`,
		Columns: []string{"result", "key", "edges", "snippet"},
	}
	if err != nil {
		t.Notes = append(t.Notes, "pipeline error: "+err.Error())
		return t
	}
	for i, o := range outs {
		t.AddRow(i+1, o.IList.KeyValue, o.Snippet.Edges, xmltree.RenderInline(o.Snippet.Root))
	}
	t.Notes = append(t.Notes,
		"paper: 'the store named as Levis features jeans, especially for man; the store ESprit focuses on outwear, mostly for woman'")
	return t
}

// E11DominanceAblation contrasts dominance-score ranking with raw-count
// ranking on the Figure 1 result (the §2.3 argument: Houston at 6
// occurrences outranks children at 40; casual at 700 should not dwarf it).
func E11DominanceAblation() *Table {
	c := core.BuildCorpus(gen.Figure1Corpus())
	result := gen.Figure1Result()
	stats := features.Collect(result.Root, c.Cls)

	t := &Table{
		ID:      "E11",
		Title:   "Feature ranking: dominance score vs raw occurrence count (§2.3)",
		Columns: []string{"rank", "by dominance", "DS", "by raw count", "N"},
	}
	dom := stats.Dominant()
	freq := baseline.FrequencyRank(stats)
	n := len(dom)
	if len(freq) > n {
		n = len(freq)
	}
	for i := 0; i < n; i++ {
		dv, ds, fv, fn := "-", "-", "-", "-"
		if i < len(dom) {
			dv = dom[i].Feature.Value
			ds = fmt.Sprintf("%.2f", dom[i].Score)
		}
		if i < len(freq) {
			fv = freq[i].Feature.Value
			fn = fmt.Sprintf("%.0f", freq[i].Score)
		}
		t.AddRow(i+1, dv, ds, fv, fn)
	}
	t.Notes = append(t.Notes,
		"Houston (6 occurrences) leads under dominance but sinks under raw counts; children (40) stays out under both only because it is below its type mean",
	)
	return t
}

// yn renders a boolean as y/n.
func yn(b bool) string {
	if b {
		return "y"
	}
	return "n"
}

// edgeCount returns the element-edge count of a snippet-like tree under the
// selector's accounting.
func edgeCount(root *xmltree.Node) int {
	if root == nil {
		return 0
	}
	elems := 0
	root.Walk(func(n *xmltree.Node) bool {
		if n.IsElement() {
			elems++
		}
		return true
	})
	return elems - 1
}
