package index

import (
	"slices"
	"sync"
	"testing"

	"extract/xmltree"
)

const columnsFixture = `<r a="1">
	<p>red <c><d>red</d><e>blue</e></c> red</p>
	<p>green<c><d>blue</d>tail</c><d/></p>
	<q kind="p">x</q>
	<s><t><u>deep</u></t></s>
</r>`

// checkColumns states what every entry holds by reading the nodes: the
// elements in preorder, each with its interval, its label symbol, the entry
// of its parent element and the value symbol of a lone text child.
func checkColumns(t *testing.T, name string, c *Columns, nodes []*xmltree.Node) {
	t.Helper()
	entry := map[*xmltree.Node]int32{}
	k := 0
	for _, n := range nodes {
		if !n.IsElement() {
			continue
		}
		if k >= c.Len() {
			t.Fatalf("%s: %d entries, more elements than that", name, c.Len())
		}
		parent, value := int32(-1), int32(-1)
		if p, ok := entry[n.Parent]; ok {
			parent = p
		}
		if n.HasSingleTextChild() {
			value = n.Children[0].Sym
		}
		got := [5]int32{c.Pos[k], c.End[k], c.Label[k], c.Parent[k], c.Value[k]}
		if want := [5]int32{n.Start, n.End, n.Sym, parent, value}; got != want {
			t.Fatalf("%s: entry %d (%v) = %v, want %v", name, k, n, got, want)
		}
		entry[n] = int32(k)
		k++
	}
	if k != c.Len() || len(c.End) != k || len(c.Label) != k || len(c.Parent) != k || len(c.Value) != k {
		t.Fatalf("%s: %d elements, columns of %d %d %d %d %d", name, k, len(c.Pos), len(c.End), len(c.Label), len(c.Parent), len(c.Value))
	}
}

// The columns Build fills in its own pass, the ones an index restored by
// FromParts derives on first use, and a scratch Fill of any subtree's run all
// say what the nodes say; a subtree's entries are one run of the document's,
// found by Run; and a refill reuses the slab.
func TestColumns(t *testing.T) {
	doc, err := xmltree.ParseString(columnsFixture)
	if err != nil {
		t.Fatal(err)
	}
	built, restored := Build(doc), FromParts(doc, nil)
	checkColumns(t, "built", built.Columns(), doc.Nodes())
	checkColumns(t, "restored", restored.Columns(), doc.Nodes())
	if restored.Columns() != restored.Columns() {
		t.Fatal("derived columns are not memoized")
	}
	if c := built.Columns(); cap(c.slab) != 5*c.Len() {
		t.Fatalf("an index's columns hold %d values for %d entries, want exact size", cap(c.slab), c.Len())
	}

	var scratch Columns
	for _, n := range doc.Nodes() {
		if !n.IsElement() {
			continue
		}
		view := doc.Subtree(n)
		slab := cap(scratch.slab)
		scratch.Fill(view.Nodes())
		checkColumns(t, "scratch "+n.String(), &scratch, view.Nodes())
		if n != doc.Root && cap(scratch.slab) != slab {
			t.Fatalf("%v: refilling a smaller subtree reallocated the slab", n)
		}
		lo, hi := built.Columns().Run(n.Start, n.End)
		if hi-lo != scratch.Len() || !slices.Equal(built.Columns().Pos[lo:hi], scratch.Pos) ||
			!slices.Equal(built.Columns().Value[lo:hi], scratch.Value) {
			t.Fatalf("%v: Run = [%d, %d), which is not the subtree's %d elements", n, lo, hi, scratch.Len())
		}
	}

	empty := Build(xmltree.NewDocument(nil))
	if empty.Columns().Len() != 0 {
		t.Fatal("an empty document has entries")
	}
}

// Within is the posting-list side of the same interval arithmetic.
func TestWithin(t *testing.T) {
	pl := &PostingList{Ords: []int32{2, 3, 7, 8, 9, 20}}
	for _, tc := range []struct{ start, end, lo, hi int32 }{
		{0, 1, 0, 0}, {0, 2, 0, 1}, {2, 2, 0, 1}, {3, 8, 1, 4}, {4, 6, 2, 2},
		{9, 30, 4, 6}, {21, 40, 6, 6}, {0, 100, 0, 6}, {8, 8, 3, 4},
	} {
		if lo, hi := pl.Within(tc.start, tc.end); lo != int(tc.lo) || hi != int(tc.hi) {
			t.Errorf("Within(%d, %d) = [%d, %d), want [%d, %d)", tc.start, tc.end, lo, hi, tc.lo, tc.hi)
		}
	}
	var none *PostingList
	if lo, hi := none.Within(0, 10); lo != 0 || hi != 0 {
		t.Errorf("nil list: [%d, %d)", lo, hi)
	}
}

// Columns (on an index that derives them) and Derived are reached by every
// query goroutine at once: one fill, one build per key, every caller the same
// answer. Run under -race in CI.
func TestDerivedStateConcurrently(t *testing.T) {
	doc, err := xmltree.ParseString(columnsFixture)
	if err != nil {
		t.Fatal(err)
	}
	ix, elements := FromParts(doc, nil), countElements(doc.Nodes())
	keyA, keyB := new(int), new(int)
	var builds [2]int
	var mu sync.Mutex
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				if ix.Columns().Len() != elements {
					t.Error("columns changed under a reader")
					return
				}
				got := ix.Derived(keyA, func() any {
					mu.Lock()
					builds[0]++
					mu.Unlock()
					return "a"
				})
				if got != "a" {
					t.Errorf("Derived(keyA) = %v", got)
					return
				}
			}
		}()
	}
	wg.Wait()
	if builds[0] != 1 {
		t.Fatalf("%d builds for one key", builds[0])
	}
	// One slot: another key replaces the value, and coming back rebuilds.
	for _, step := range []struct {
		key  *int
		want string
	}{{keyB, "b"}, {keyB, "b"}, {keyA, "a"}} {
		got := ix.Derived(step.key, func() any { builds[1]++; return step.want })
		if got != step.want {
			t.Fatalf("Derived = %v, want %v", got, step.want)
		}
	}
	if builds[1] != 2 {
		t.Fatalf("%d builds across a key change and back, want 2", builds[1])
	}
}
