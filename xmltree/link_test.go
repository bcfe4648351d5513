package xmltree

import (
	"strings"
	"testing"
)

// linkCopy links a copy of doc's nodes, handed over in preorder with their
// child counts, and returns the copies and Close's error.
func linkCopy(doc *Document) ([]Node, error) {
	src := doc.Nodes()
	slab := make([]Node, len(src))
	link := NewLinker(make([]*Node, len(src)-1))
	for i, n := range src {
		slab[i] = Node{Kind: n.Kind, Label: n.Label, Value: n.Value}
		if err := link.Link(&slab[i], len(n.Children)); err != nil {
			return nil, err
		}
	}
	return slab, link.Close()
}

// TestLinkerBuildsTheFinalizedTree: linking a document's nodes in preorder
// gives every node the Parent, Children, Ord, Start and End NewDocument gave
// the original.
func TestLinkerBuildsTheFinalizedTree(t *testing.T) {
	doc := buildSample()
	slab, err := linkCopy(doc)
	if err != nil {
		t.Fatal(err)
	}
	pos := func(n *Node) int {
		if n == nil {
			return -1
		}
		return n.Ord
	}
	for i, want := range doc.Nodes() {
		got := &slab[i]
		if got.Ord != want.Ord || got.Start != want.Start || got.End != want.End || pos(got.Parent) != pos(want.Parent) || len(got.Children) != len(want.Children) {
			t.Fatalf("node %d: ord %d [%d, %d] parent %d, %d children; want ord %d [%d, %d] parent %d, %d children",
				i, got.Ord, got.Start, got.End, pos(got.Parent), len(got.Children),
				want.Ord, want.Start, want.End, pos(want.Parent), len(want.Children))
		}
		for j, c := range got.Children {
			if c != &slab[want.Children[j].Ord] {
				t.Fatalf("node %d: child %d is not node %d", i, j, want.Children[j].Ord)
			}
		}
	}
	if XMLString(&slab[0]) != XMLString(doc.Root) {
		t.Fatal("the linked copy serializes differently")
	}
}

// TestLinkerRefusesMalformedCounts: a child count past the node total, a node
// after the root's subtree has closed and a tree whose nodes end with
// children still owed are refused, each by its own error.
func TestLinkerRefusesMalformedCounts(t *testing.T) {
	for _, tc := range []struct {
		name  string
		total int // the node total the arena is sized for
		kids  []int
		want  string
	}{
		{"count past the node total", 3, []int{3, 0, 0}, "past the node total"},
		{"counts summing past the node total", 3, []int{1, 2, 0}, "past the node total"},
		{"negative count", 2, []int{-1, 0}, "past the node total"},
		{"second root", 3, []int{1, 0, 0}, "outside the root subtree"},
		{"second root after a leaf root", 2, []int{0, 0}, "outside the root subtree"},
		{"truncated tree", 4, []int{2, 1, 0}, "tree truncated"},
	} {
		slab := make([]Node, len(tc.kids))
		link := NewLinker(make([]*Node, tc.total-1))
		var err error
		for i, kids := range tc.kids {
			if err = link.Link(&slab[i], kids); err != nil {
				break
			}
		}
		if err == nil {
			err = link.Close()
		}
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s %v: err = %v, want %q", tc.name, tc.kids, err, tc.want)
		}
	}
}

// TestLinkerAllocatesNothingAnyDepth: the linker keeps no stack, so a
// 3 000-deep chain links in as many allocations as a 30-deep one — none —
// and comes out whole.
func TestLinkerAllocatesNothingAnyDepth(t *testing.T) {
	allocs := func(depth int) float64 {
		slab, arena := make([]Node, depth+1), make([]*Node, depth)
		var err error
		got := testing.AllocsPerRun(20, func() {
			link := NewLinker(arena)
			for i := range slab {
				if err = link.Link(&slab[i], min(1, depth-i)); err != nil {
					return
				}
			}
			err = link.Close()
		})
		if err != nil {
			t.Fatalf("%d-deep chain: %v", depth, err)
		}
		if root, leaf := &slab[0], &slab[depth]; root.End != int32(depth) || leaf.Parent != &slab[depth-1] || leaf.Start != int32(depth) {
			t.Fatalf("%d-deep chain: root ends at %d, leaf at %d", depth, root.End, leaf.Start)
		}
		return got
	}
	if shallow, deep := allocs(30), allocs(3000); shallow != 0 || deep != 0 {
		t.Fatalf("linking a 30-deep chain allocates %v objects, a 3000-deep one %v; want none", shallow, deep)
	}
}
