package xmltree

import (
	"cmp"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"
)

// childPath derives n's child-index path from its root — the paper's Dewey
// label, which the model does not store — so tests can pin the preorder
// interval against it.
func childPath(n *Node) []int {
	var path []int
	for ; n.Parent != nil; n = n.Parent {
		path = append(path, slices.Index(n.Parent.Children, n))
	}
	slices.Reverse(path)
	return path
}

// onParentChain reports whether a is a strict ancestor of b by walking b's
// Parent pointers.
func onParentChain(a, b *Node) bool {
	for p := b.Parent; p != nil; p = p.Parent {
		if p == a {
			return true
		}
	}
	return false
}

// Property: the preorder interval is the whole node identity. On every node
// pair of random documents its ancestor tests agree with the Parent-chain
// walk, and its order agrees with the order of the Dewey labels (child-index
// paths) derived here.
func TestIntervalMatchesDewey(t *testing.T) {
	check := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		doc := randomTree(r, 2+r.Intn(40))
		all := doc.Nodes()
		for _, a := range all {
			for _, b := range all {
				if a.Contains(b) != onParentChain(a, b) {
					t.Logf("Contains mismatch: %v vs %v", a, b)
					return false
				}
				if a.ContainsOrSelf(b) != (a == b || onParentChain(a, b)) {
					t.Logf("ContainsOrSelf mismatch: %v vs %v", a, b)
					return false
				}
				if cmp.Compare(a.Ord, b.Ord) != slices.Compare(childPath(a), childPath(b)) {
					t.Logf("order mismatch: %v vs %v", a, b)
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// The interval invariants: Start equals Ord, End covers exactly the subtree,
// and siblings' intervals are disjoint.
func TestIntervalInvariants(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	for trial := 0; trial < 20; trial++ {
		doc := randomTree(r, 2+r.Intn(60))
		for _, n := range doc.Nodes() {
			if int(n.Start) != n.Ord {
				t.Fatalf("Start = %d, Ord = %d", n.Start, n.Ord)
			}
			want := n.Ord + n.NodeCount() - 1
			if int(n.End) != want {
				t.Fatalf("End = %d, want %d (subtree of %d nodes at ord %d)",
					n.End, want, n.NodeCount(), n.Ord)
			}
		}
		// Re-finalizing after a structural edit refreshes the intervals.
		doc2 := NewDocument(doc.Root)
		for i, n := range doc2.Nodes() {
			if int(n.Start) != i {
				t.Fatalf("refinalized Start = %d at position %d", n.Start, i)
			}
		}
	}
}
