package shard

import (
	"context"
	"strconv"
	"testing"

	"extract/internal/core"
	"extract/internal/index"
	"extract/internal/search"
	"extract/xmltree"
)

// FuzzRoundTwoMatchesWhole holds Merge — round one's cut, and the second
// round composed from round one's partials, nothing evaluated on or copied
// from the whole document — to the engine over the unsharded document: a
// small random tree is split into 2–4 shards, and every answer (anchor and
// LCA global positions, in order) must be the whole engine's, under either
// semantics, with or without DistinctAnchors, at any result bound; a
// whole-document result's served snippet must be the whole engine's root
// result's, and so must its tree, built from the shards, and that tree's
// snippet. The whole document built from the shards (search.WholeDocument)
// must be the unsharded one, node for node.
//
// Node k attaches below one of the nodes before it — counted from the root
// when its shape byte is even, from the newest node when odd — and takes label
// shape>>1%4, the root's own among them (two siblings of it make the root an
// entity, the one way a result is anchored at a shard root below an LCA of
// its own), and, every third shape byte, a text value; the query is two or
// three of the labels and values, picked by the query byte.
func FuzzRoundTwoMatchesWhole(f *testing.F) {
	f.Add([]byte{0, 0, 0, 1, 3, 5, 2, 9, 4}, uint8(3), uint8(0x21), uint8(0))
	f.Add([]byte{0, 0, 4, 6, 8, 1, 3, 12, 7, 10}, uint8(2), uint8(0x12), uint8(1))
	f.Add([]byte{0, 2, 0, 6, 0, 10, 1, 1, 1}, uint8(4), uint8(0x40), uint8(7))
	f.Fuzz(func(t *testing.T, shape []byte, n, query, opt uint8) {
		if len(shape) < 2 || len(shape) > 200 {
			return
		}
		labels := []string{"a", "b", "c", "r"} // "r" siblings make the root an entity
		values := []string{"x", "y", "a", "x y"}
		mk := func() *xmltree.Document {
			nodes := []*xmltree.Node{xmltree.Elem("r")}
			for k, b := range shape {
				at := int(b/2) % len(nodes)
				if b%2 == 1 {
					at = len(nodes) - 1 - at
				}
				if k < 2 {
					at = 0 // two top-level children at least: something to split
				}
				child := xmltree.Elem(labels[int(b>>1)%len(labels)])
				if k%3 == 2 {
					xmltree.Append(child, xmltree.Txt(values[int(b>>3)%len(values)]))
				}
				xmltree.Append(nodes[at], child)
				nodes = append(nodes, child)
			}
			return xmltree.NewDocument(nodes[0])
		}
		terms := []string{"a", "b", "c", "d", "x", "y", "r"}
		q := terms[int(query)%len(terms)] + " " + terms[int(query>>4)%len(terms)]
		if query&0x08 != 0 {
			q += " " + terms[int(query>>2)%len(terms)]
		}
		opts := search.Options{DistinctAnchors: opt&1 == 0, MaxResults: int(opt>>2) % 4}
		if opt&2 != 0 {
			opts.Semantics = search.SemanticsELCA
		}

		whole := core.BuildCorpus(mk())
		want, err := search.NewEngine(whole.Doc, whole.Index, whole.Cls, opts).Search(search.Parse(q))
		if err != nil {
			t.Fatal(err)
		}
		sc := Build(mk(), 2+int(n)%3)
		sameDocument(t, search.WholeDocument(sc.Whole()), whole.Doc)
		got, err := sc.SearchEnginesContext(context.Background(), q, opts, nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != len(want) {
			t.Fatalf("%q %+v on %d shards: %d results, want %d", q, opts, sc.NumShards(), len(got), len(want))
		}
		wholeGen := core.NewGenerator(whole)
		kws := index.Tokenize(q)
		for i, r := range got {
			a, l := sc.Positions(r)
			if int(a) != want[i].Anchor.Ord || int(l) != want[i].LCA.Ord {
				t.Fatalf("%q %+v on %d shards: result %d at (%d, %d), want (%d, %d)",
					q, opts, sc.NumShards(), i, a, l, want[i].Anchor.Ord, want[i].LCA.Ord)
			}
			if v, _ := r.Whole(); v == nil {
				continue
			}
			if r.Size() != want[i].Size() {
				t.Fatalf("%q: whole result of %d edges, want %d", q, r.Size(), want[i].Size())
			}
			gs := sc.Generator().ServeResult(r, kws, 4).XML
			ws := wholeGen.ServeResult(want[i], kws, 4).XML
			if gs != ws {
				t.Fatalf("%q %+v on %d shards: whole snippet\n%s\nwant\n%s", q, opts, sc.NumShards(), gs, ws)
			}
			// Its tree, built from the shards, is the whole engine's result:
			// the LCA, every match, and — read node by node, with no index
			// — the same snippet.
			tree, err := r.Tree(context.Background())
			if err != nil {
				t.Fatal(err)
			}
			if tree.Index != nil || tree.LCA.Ord != want[i].LCA.Ord || matchOrds(tree) != matchOrds(want[i]) {
				t.Fatalf("%q %+v: whole tree LCA %d, matches %s; want %d, %s", q, opts, tree.LCA.Ord, matchOrds(tree), want[i].LCA.Ord, matchOrds(want[i]))
			}
			if ts := sc.Generator().ServeResult(tree, kws, 4).XML; ts != ws {
				t.Fatalf("%q %+v on %d shards: whole tree's snippet\n%s\nwant\n%s", q, opts, sc.NumShards(), ts, ws)
			}
		}
	})
}

// sameDocument fails unless got is want node for node: kind, label, value,
// attribute origin, symbol id, positions, parent and child count.
func sameDocument(t *testing.T, got, want *xmltree.Document) {
	t.Helper()
	if got.Len() != want.Len() {
		t.Fatalf("%d nodes, want %d", got.Len(), want.Len())
	}
	for k, w := range want.Nodes() {
		g := got.Nodes()[k]
		if g.Kind != w.Kind || g.Label != w.Label || g.Value != w.Value || g.FromAttr != w.FromAttr || g.Sym != w.Sym ||
			g.Ord != w.Ord || g.Start != w.Start || g.End != w.End || len(g.Children) != len(w.Children) ||
			(g.Parent == nil) != (w.Parent == nil) || g.Parent != nil && g.Parent.Ord != w.Parent.Ord {
			t.Fatalf("node %d: %+v, want %+v", k, *g, *w)
		}
	}
}

// matchOrds renders r's match keywords, each with its matches' positions.
func matchOrds(r *search.Result) string {
	out := ""
	for _, kw := range r.MatchKeywords() {
		out += kw + ":"
		for _, m := range r.Matches(kw) {
			out += " " + strconv.Itoa(m.Ord)
		}
		out += ";"
	}
	return out
}
