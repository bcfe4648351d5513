package shard

import (
	"context"
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
// result's.
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
		want, err := search.NewEngine(whole.Doc, whole.Index, whole.Cls, opts).Search(q)
		if err != nil {
			t.Fatal(err)
		}
		sc := Build(mk(), 2+int(n)%3)
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
			gs := xmltree.XMLString(sc.Generator().ServeResult(r, kws, 4).Snippet.Root)
			ws := xmltree.XMLString(wholeGen.ServeResult(want[i], kws, 4).Snippet.Root)
			if gs != ws {
				t.Fatalf("%q %+v on %d shards: whole snippet\n%s\nwant\n%s", q, opts, sc.NumShards(), gs, ws)
			}
		}
	})
}
