package search

import (
	"fmt"
	"testing"

	"extract/internal/index"
	"extract/xmltree"
)

// freeBaseline is the definition ELCAPacked's free row is held to: per
// list, some entry lies outside the subtree of every ELCABaseline node other
// than the root.
func freeBaseline(lists ...[]*xmltree.Node) []bool {
	elcas := ELCABaseline(lists...)
	free := make([]bool, len(lists))
	for j, l := range lists {
	entries:
		for _, n := range l {
			for _, e := range elcas {
				if e.Parent != nil && e.ContainsOrSelf(n) {
					continue entries
				}
			}
			free[j] = true
			break
		}
	}
	return free
}

// checkELCA holds one ELCAPacked evaluation to the whole-document oracle:
// the same set, strictly increasing in Start, and the root's row equal to
// the brute-force free bits.
func checkELCA(t testing.TB, lists ...[]*xmltree.Node) {
	t.Helper()
	got, free := ELCAPacked(columnsOf(lists), packLists(lists)...)
	if want := ELCABaseline(lists...); !sameNodes(got, want) {
		t.Fatalf("elca = %v, baseline = %v", labels(got), labels(want))
	}
	for i := 1; i < len(got); i++ {
		if got[i].Start <= got[i-1].Start {
			t.Fatalf("elca not strictly increasing in Start at %d: %d after %d", i, got[i].Start, got[i-1].Start)
		}
	}
	if want := freeBaseline(lists...); fmt.Sprint(free) != fmt.Sprint(want) {
		t.Fatalf("free = %v, brute force = %v (elcas %v)", free, want, labels(got))
	}
}

// entities builds <r> over n <e> children; entity i holds one child of every
// tag whose period divides i.
func entities(n int, period map[string]int) *index.Index {
	root := xmltree.Elem("r")
	for i := 0; i < n; i++ {
		e := xmltree.Elem("e")
		for _, tag := range []string{"a", "b", "c", "rare", "rarer"} {
			if p := period[tag]; p > 0 && i%p == 0 {
				xmltree.Append(e, xmltree.Elem(tag))
			}
		}
		xmltree.Append(root, e)
	}
	return index.Build(xmltree.NewDocument(root))
}

// The shapes the random-tree property under-samples: long lists beside very
// short ones (the rank cursors jump hundreds of entries between candidates),
// in both probe modes of the shared candidate loop, and a single keyword.
func TestELCAListShapes(t *testing.T) {
	ix := entities(3000, map[string]int{"a": 1, "b": 1, "c": 2, "rare": 100, "rarer": 750})
	for _, tc := range []struct {
		tags []string
		scan bool
	}{
		{[]string{"a", "b"}, true},
		{[]string{"a", "b", "c"}, true},
		{[]string{"rare", "a"}, true},           // 1:100, just under the crossover
		{[]string{"a", "rarer", "b"}, false},    // 1:750
		{[]string{"rarer", "rare", "c"}, false}, // every list short
		{[]string{"e", "rarer"}, false},         // the entities themselves
		{[]string{"a"}, true},
		{[]string{"rarer"}, true},
	} {
		lists := make([][]*xmltree.Node, len(tc.tags))
		packed := make([]*index.PostingList, len(tc.tags))
		for i, tag := range tc.tags {
			lists[i], packed[i] = ix.Nodes(tag), ix.List(tag)
		}
		if g := newFolds(ix.Columns(), packed, make([]int, len(packed))); g.scan != tc.scan {
			t.Errorf("%v: scan = %v, want %v", tc.tags, g.scan, tc.scan)
		}
		t.Run(fmt.Sprint(tc.tags), func(t *testing.T) { checkELCA(t, lists...) })
	}
}

// A keyword on the root's own tag or in its direct text is a match at ord 0:
// inside no other node, so always free, and the root is a candidate that is
// never pushed twice.
func TestELCARootMatches(t *testing.T) {
	doc := parse(t, `<r>x<a><x/><y/></a><b><y/></b><a><x/><r/></a></r>`)
	ix := index.Build(doc)
	for _, kws := range [][]string{
		{"r"}, {"r", "x"}, {"x", "y"}, {"r", "y", "x"}, {"a", "r"}, {"b", "x"},
	} {
		lists := make([][]*xmltree.Node, len(kws))
		for i, kw := range kws {
			lists[i] = ix.Nodes(kw)
		}
		t.Run(fmt.Sprint(kws), func(t *testing.T) { checkELCA(t, lists...) })
	}
}

// Phrase terms reach the evaluation as lists packed per query rather than as
// index posting lists; the engine's ELCA set and free bits must not care.
func TestELCAPhraseTerms(t *testing.T) {
	doc := parse(t, corpus)
	e := NewEngine(doc, nil, nil, Options{Semantics: SemanticsELCA})
	for _, q := range []string{`"brook brothers" texas`, `"brook brothers"`, `apparel "texas" store`, `"levis" "brook brothers"`} {
		ev, err := e.Evaluate(q)
		if err != nil {
			t.Fatal(err)
		}
		lists := make([][]*xmltree.Node, len(ev.Lists))
		for i, l := range ev.Lists {
			lists[i] = l.Nodes
		}
		if want := ELCABaseline(lists...); !sameNodes(ev.LCAs, want) || len(want) == 0 {
			t.Errorf("%s: elca %v, baseline %v", q, labels(ev.LCAs), labels(want))
		}
		if want := freeBaseline(lists...); fmt.Sprint(ev.Free) != fmt.Sprint(want) {
			t.Errorf("%s: free %v, brute force %v", q, ev.Free, want)
		}
	}
	// A keyword with no match: no ELCAs, and every match there is is free.
	ev, err := e.Evaluate("texas nosuchword")
	if err != nil || ev.LCAs != nil || fmt.Sprint(ev.Free) != "[true false]" {
		t.Errorf("incomplete evaluation: lcas %v, free %v, err %v", labels(ev.LCAs), ev.Free, err)
	}
}

// On a 2000-deep chain with a match of both keywords at every level every
// node is a candidate and an ancestor of every later candidate: the stack
// must grow by the one new node per candidate, never re-push the chain.
func TestELCADeepChainPushesEachNodeOnce(t *testing.T) {
	const depth = 2000
	root := xmltree.Elem("a")
	for cur, i := root, 1; i < depth; i++ {
		xmltree.Append(cur, xmltree.Elem("b"))
		next := xmltree.Elem("a")
		xmltree.Append(cur, next)
		cur = next
	}
	doc := xmltree.NewDocument(root)
	ix := index.Build(doc)
	checkELCA(t, ix.Nodes("a"), ix.Nodes("b"))
	checkELCA(t, ix.Nodes("b"), ix.Nodes("a"), ix.Nodes("a"))

	sc, lists := &lcaScratch{}, []*index.PostingList{ix.List("a"), ix.List("b")}
	if got := sc.eval(ix, lists, make([]bool, 2)); len(got) != depth-1 {
		t.Fatalf("chain elcas = %d, want %d", len(got), depth-1)
	}
	if nodes := len(doc.Nodes()); sc.pushes > nodes {
		t.Fatalf("%d pushes on a %d-node document", sc.pushes, nodes)
	}
}

// FuzzELCA holds ELCAPacked to ELCABaseline and the brute-force free bits on
// fuzzed tree shapes and per-list membership. Node i hangs under one of the
// nodes before it — counted from the root when the shape byte is even, from
// the newest node when odd, so both bushy and deep trees come up — and its
// member byte puts it into list j once (bit j) or twice (bit j+4).
func FuzzELCA(f *testing.F) {
	f.Add([]byte{0, 0, 1, 1, 2, 5}, []byte{1, 2, 3, 0x11, 2, 1, 3}, uint8(1))
	f.Add([]byte{1, 1, 1, 1, 1, 1, 1, 1}, []byte{0xff}, uint8(3))
	f.Add([]byte{0, 2, 4, 6, 8, 10}, []byte{1, 0, 0, 0, 0, 2, 2}, uint8(2))
	f.Add([]byte{}, []byte{7}, uint8(0))
	f.Fuzz(func(t *testing.T, shape, member []byte, k8 uint8) {
		if len(shape) > 300 || len(member) == 0 {
			return
		}
		nodes := []*xmltree.Node{xmltree.Elem("n")}
		for _, b := range shape {
			at := int(b/2) % len(nodes)
			if b%2 == 1 {
				at = len(nodes) - 1 - at
			}
			child := xmltree.Elem("n")
			xmltree.Append(nodes[at], child)
			nodes = append(nodes, child)
		}
		doc := xmltree.NewDocument(nodes[0])
		lists := make([][]*xmltree.Node, 1+k8%4)
		for i, n := range doc.Nodes() {
			m := member[i%len(member)]
			for j := range lists {
				for c := m>>j&1 + m>>(j+4)&1; c > 0; c-- {
					lists[j] = append(lists[j], n)
				}
			}
		}
		checkELCA(t, lists...)
	})
}
