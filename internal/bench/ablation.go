package bench

import (
	"bytes"
	"fmt"
	"time"

	"extract/internal/core"
	"extract/internal/persist"
	"extract/internal/selector"
	"extract/xmltree"
)

// E12SelectorStrategies is the design-choice ablation DESIGN.md calls out
// for the Instance Selector: the paper's rank-order greedy vs a
// benefit/cost ratio greedy vs the exact optimum, on small random results
// where the exact solver is feasible. Reported per bound: average covered
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

// E13Persistence measures the binary corpus format against XML: file size,
// save time, load time vs parse+analyze time.
func E13Persistence(sizes []int) *Table {
	if len(sizes) == 0 {
		sizes = []int{1_000, 10_000, 100_000}
	}
	t := &Table{
		ID:      "E13",
		Title:   "Corpus persistence: binary index vs XML re-analysis",
		Columns: []string{"nodes", "xml KB", "binary KB", "save ms", "load ms", "reanalyze ms"},
	}
	for _, size := range sizes {
		doc := storesCorpusOfSize(size, 4)
		c := core.BuildCorpus(doc)
		xml := xmltree.XMLString(doc.Root)

		var buf bytes.Buffer
		start := time.Now()
		if err := persist.Save(&buf, c); err != nil {
			t.Notes = append(t.Notes, "save error: "+err.Error())
			continue
		}
		saveMS := time.Since(start).Seconds() * 1000

		start = time.Now()
		loaded, err := persist.Load(bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Notes = append(t.Notes, "load error: "+err.Error())
			continue
		}
		loadMS := time.Since(start).Seconds() * 1000

		start = time.Now()
		parsed, err := xmltree.ParseString(xml)
		if err == nil {
			core.BuildCorpus(parsed)
		}
		reMS := time.Since(start).Seconds() * 1000

		if loaded.Doc.Len() != c.Doc.Len() {
			t.Notes = append(t.Notes, fmt.Sprintf("node mismatch at %d", size))
		}
		t.AddRow(doc.Len(),
			fmt.Sprintf("%.0f", float64(len(xml))/1024),
			fmt.Sprintf("%.0f", float64(buf.Len())/1024),
			fmt.Sprintf("%.1f", saveMS),
			fmt.Sprintf("%.1f", loadMS),
			fmt.Sprintf("%.1f", reMS))
	}
	t.Notes = append(t.Notes,
		"expected shape: binary smaller than XML; load (tree decode + index rebuild) cheaper than parse + classify + mine")
	return t
}
