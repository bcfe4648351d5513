package search_test

import (
	"bytes"
	"fmt"
	"slices"
	"strings"
	"testing"

	"extract/internal/classify"
	"extract/internal/core"
	"extract/internal/gen"
	"extract/internal/index"
	"extract/internal/persist"
	"extract/internal/search"
	"extract/internal/shard"
	"extract/internal/workload"
	"extract/xmltree"
)

// The LCA evaluation runs on an index's columns, which an index gets in two
// ways: filled by index.Build, or derived on first use by an index restored
// from an image (persist, index.FromParts). Every index the product
// evaluates on — a whole corpus built or restored, and each shard of a
// sharded one under the shard-root filter — must give the brute-force LCAs,
// free bits and bounded prefixes, and every posting list the engine hands
// the evaluation, phrase lists included, must enter the columns at an exact
// entry.
func TestColumnEvaluationOnEveryIndexKind(t *testing.T) {
	corpora := []func() *xmltree.Document{
		func() *xmltree.Document {
			return gen.Stores(gen.StoresConfig{Retailers: 5, StoresPerRetailer: 3, ClothesPerStore: 4, Seed: 11})
		},
		func() *xmltree.Document {
			return gen.Auctions(gen.AuctionsConfig{People: 8, Auctions: 6, Items: 10, Seed: 12})
		},
		func() *xmltree.Document { return gen.Movies(gen.MoviesConfig{Movies: 12, Seed: 13}) },
	}
	for ci, corpus := range corpora {
		queries := columnQueries(corpus(), int64(30+ci))
		built := core.BuildCorpus(corpus())
		t.Run(fmt.Sprintf("corpus%d/built", ci), func(t *testing.T) {
			checkColumnEvaluation(t, built.Index, built.Cls, nil, queries)
		})
		t.Run(fmt.Sprintf("corpus%d/restored", ci), func(t *testing.T) {
			var image bytes.Buffer
			if err := persist.Save(&image, built); err != nil {
				t.Fatal(err)
			}
			restored, err := persist.Load(&image)
			if err != nil {
				t.Fatal(err)
			}
			checkColumnEvaluation(t, restored.Index, restored.Cls, nil, queries)
		})
		for _, n := range []int{3, 4} {
			sc := shard.Build(corpus(), n)
			for si, s := range sc.Shards() {
				t.Run(fmt.Sprintf("corpus%d/shards%d/%d", ci, n, si), func(t *testing.T) {
					checkColumnEvaluation(t, s.Index, sc.Classification(), s.Doc.Root, queries)
				})
			}
		}
	}
}

// columnQueries draws workload queries from doc, and phrase queries from
// its multi-word text values, each phrase alone and beside a keyword.
func columnQueries(doc *xmltree.Document, seed int64) []string {
	var qs []string
	for _, q := range workload.Generate(doc, workload.Config{Queries: 8, Keywords: 3, Seed: seed}) {
		qs = append(qs, q.Text())
	}
	phrases := 0
	for _, n := range doc.Nodes() {
		if !n.IsText() || len(index.Tokenize(n.Value)) < 2 || phrases == 4 {
			continue
		}
		phrase := `"` + strings.Join(index.Tokenize(n.Value)[:2], " ") + `"`
		qs = append(qs, phrase, phrase+" "+n.Parent.Label)
		phrases++
	}
	return qs
}

// checkColumnEvaluation evaluates every query on ix under both semantics and
// holds the result to the oracles; the LCAs compared are those other than
// skip (a shard's root, nil for a whole corpus).
func checkColumnEvaluation(t *testing.T, ix *index.Index, cls *classify.Classification, skip *xmltree.Node, queries []string) {
	t.Helper()
	doc, cols := ix.Document(), ix.Columns()
	exact := func(what string, l *index.PostingList) {
		if l == nil {
			return // no match in this document
		}
		for _, ord := range l.Ords {
			if _, ok := slices.BinarySearch(cols.Pos, ord); !ok {
				t.Fatalf("%s: posting at %d has no column entry", what, ord)
			}
		}
	}
	for _, kw := range ix.Vocabulary() {
		exact(kw, ix.ListOf(kw))
	}
	kept := func(ns []*xmltree.Node) []*xmltree.Node {
		return slices.DeleteFunc(slices.Clone(ns), func(n *xmltree.Node) bool { return n == skip })
	}
	slca := search.NewEngine(doc, ix, cls, search.Options{})
	elca := search.NewEngine(doc, ix, cls, search.Options{Semantics: search.SemanticsELCA})
	for _, q := range queries {
		ev, err := slca.Evaluate(q)
		if err != nil {
			t.Fatalf("%s: %v", q, err)
		}
		lists := make([][]*xmltree.Node, len(ev.Lists))
		for i, l := range ev.Lists {
			exact(q, l)
			if l != nil {
				lists[i] = l.Nodes
			}
		}
		full := search.SLCABrute(doc, lists...)
		if !slices.Equal(kept(ev.LCAs), kept(full)) || ev.Truncated {
			t.Errorf("%s: slca %v (truncated %v), brute %v", q, ev.LCAs, ev.Truncated, full)
		}
		for _, k := range []int{1, 3, 25} {
			bounded, err := slca.EvaluateBounded(q, k)
			if err != nil {
				t.Fatalf("%s: %v", q, err)
			}
			want := full[:min(k, len(full))]
			if !slices.Equal(kept(bounded.LCAs), kept(want)) || bounded.Truncated != (k < len(full)) {
				t.Errorf("%s, k=%d: slca %v (truncated %v), brute prefix %v of %d",
					q, k, bounded.LCAs, bounded.Truncated, want, len(full))
			}
		}
		ev, err = elca.Evaluate(q)
		if err != nil {
			t.Fatalf("%s: %v", q, err)
		}
		if want := search.ELCABaseline(lists...); !slices.Equal(kept(ev.LCAs), kept(want)) {
			t.Errorf("%s: elca %v, baseline %v", q, ev.LCAs, want)
		}
		if want := search.FreeBaseline(lists...); !slices.Equal(ev.Free, want) {
			t.Errorf("%s: free %v, brute force %v", q, ev.Free, want)
		}
	}
}
