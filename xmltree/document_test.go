package xmltree

import (
	"math/rand"
	"runtime"
	"testing"
	"testing/quick"
	"unsafe"
)

func buildSample() *Document {
	root := Elem("retailer",
		Attr("name", "Brook Brothers"),
		Attr("product", "apparel"),
		Elem("store",
			Attr("state", "Texas"),
			Attr("city", "Houston"),
			Elem("merchandises",
				Elem("clothes", Attr("category", "suit"), Attr("fitting", "man")),
				Elem("clothes", Attr("category", "outwear"), Attr("fitting", "woman")),
			),
		),
	)
	return NewDocument(root)
}

func TestNodeHelpers(t *testing.T) {
	doc := buildSample()
	root := doc.Root
	if root.Depth() != 0 {
		t.Errorf("root depth = %d", root.Depth())
	}
	store := root.ChildElement("store")
	m := store.ChildElement("merchandises")
	if m.Depth() != 2 {
		t.Errorf("merchandises depth = %d", m.Depth())
	}
	if got := len(root.ChildElements("store")); got != 1 {
		t.Errorf("stores = %d", got)
	}
	suit := root.Descendant("store", "merchandises", "clothes", "category")
	if suit == nil || suit.TextValue() != "suit" {
		t.Errorf("Descendant navigation = %v", suit)
	}
	if got := root.NodeCount(); got != 21 {
		t.Errorf("NodeCount = %d, want 21", got)
	}
	if got := root.EdgeCount(); got != 20 {
		t.Errorf("EdgeCount = %d, want 20", got)
	}
	if got := m.Root(); got != root {
		t.Errorf("Root() = %v", got)
	}
	txt := root.Text()
	if txt == "" || !contains(txt, "Houston") || !contains(txt, "suit") {
		t.Errorf("Text() = %q", txt)
	}
}

func contains(s, sub string) bool {
	return len(s) >= len(sub) && (s == sub || len(sub) == 0 ||
		indexOf(s, sub) >= 0)
}

func indexOf(s, sub string) int {
	for i := 0; i+len(sub) <= len(s); i++ {
		if s[i:i+len(sub)] == sub {
			return i
		}
	}
	return -1
}

func TestLCANode(t *testing.T) {
	doc := buildSample()
	store := doc.Root.ChildElement("store")
	clothes := store.ChildElement("merchandises").Children
	got := LCA(clothes[0], clothes[1])
	if got == nil || got.Label != "merchandises" {
		t.Errorf("LCA = %v", got)
	}
	if LCA(doc.Root, clothes[0]) != doc.Root {
		t.Errorf("LCA with root must be root")
	}
	if LCA(clothes[0], clothes[0]) != clothes[0] {
		t.Errorf("LCA self")
	}
}

func TestPathTo(t *testing.T) {
	doc := buildSample()
	store := doc.Root.ChildElement("store")
	cat := doc.Root.Descendant("store", "merchandises", "clothes", "category")
	path := cat.PathTo(store)
	if len(path) != 3 {
		t.Fatalf("path len = %d, want 3", len(path))
	}
	if path[0].Label != "merchandises" || path[2] != cat {
		t.Errorf("path = %v", path)
	}
	if got := cat.PathTo(cat); len(got) != 0 {
		t.Errorf("PathTo self = %v", got)
	}
	other := Elem("other")
	if got := cat.PathTo(other); got != nil {
		t.Errorf("PathTo non-ancestor = %v", got)
	}
}

func TestProjectSet(t *testing.T) {
	doc := buildSample()
	store := doc.Root.ChildElement("store")
	city := store.ChildElement("city")
	cat := doc.Root.Descendant("store", "merchandises", "clothes", "category")

	proj := ProjectSet(doc.Root, map[*Node]bool{city: true, cat: true})
	if proj == nil || proj.Label != "retailer" {
		t.Fatalf("projection root = %v", proj)
	}
	// The projection contains the ancestor closure only.
	pd := NewDocument(proj)
	var labels []string
	for _, n := range pd.Nodes() {
		if n.IsElement() {
			labels = append(labels, n.Label)
		}
	}
	want := []string{"retailer", "store", "city", "merchandises", "clothes", "category"}
	if len(labels) != len(want) {
		t.Fatalf("projected labels = %v, want %v", labels, want)
	}
	for i := range want {
		if labels[i] != want[i] {
			t.Fatalf("projected labels = %v, want %v", labels, want)
		}
	}
	// Origin pointers chain back to the source tree.
	if pd.Root.Origin != doc.Root {
		t.Error("origin of projected root not set")
	}
	// Text children of kept attribute-shaped nodes are not kept unless
	// selected; city projects as a bare element here.
	cityCopy := pd.Root.Descendant("store", "city")
	if cityCopy == nil {
		t.Fatal("city lost in projection")
	}
	if len(cityCopy.Children) != 0 {
		t.Errorf("city copy has children %v; text was not selected", cityCopy.Children)
	}
}

func TestProjectSetWithText(t *testing.T) {
	doc := buildSample()
	store := doc.Root.ChildElement("store")
	city := store.ChildElement("city")
	set := map[*Node]bool{city: true, city.Children[0]: true}
	proj := ProjectSet(doc.Root, set)
	pd := NewDocument(proj)
	cityCopy := pd.Root.Descendant("store", "city")
	if cityCopy.TextValue() != "Houston" {
		t.Errorf("city text lost: %v", RenderInline(proj))
	}
}

func TestProjectEmpty(t *testing.T) {
	doc := buildSample()
	if got := ProjectSet(doc.Root, nil); got != nil {
		t.Errorf("empty projection = %v", got)
	}
}

func TestComputeStats(t *testing.T) {
	doc := buildSample()
	s := doc.ComputeStats()
	if s.Nodes != 21 || s.Elements != 13 || s.Texts != 8 {
		t.Errorf("stats = %+v", s)
	}
	if s.MaxDepth != 5 {
		t.Errorf("max depth = %d", s.MaxDepth)
	}
	if s.Labels != 10 {
		t.Errorf("labels = %d", s.Labels)
	}
}

// randomTree builds a random tree with n element nodes for property tests.
func randomTree(r *rand.Rand, n int) *Document {
	labels := []string{"a", "b", "c", "d", "e"}
	nodes := []*Node{Elem(labels[r.Intn(len(labels))])}
	for len(nodes) < n {
		parent := nodes[r.Intn(len(nodes))]
		var child *Node
		if r.Intn(4) == 0 {
			child = Attr(labels[r.Intn(len(labels))], "v")
		} else {
			child = Elem(labels[r.Intn(len(labels))])
		}
		Append(parent, child)
		nodes = append(nodes, child)
	}
	return NewDocument(nodes[0])
}

// Property: in any document, the pointer LCA is the lowest node whose
// interval covers both nodes.
func TestDocumentProperties(t *testing.T) {
	check := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		doc := randomTree(r, 2+r.Intn(40))
		ns := doc.Nodes()
		a := ns[r.Intn(len(ns))]
		b := ns[r.Intn(len(ns))]
		l := LCA(a, b)
		if !l.ContainsOrSelf(a) || !l.ContainsOrSelf(b) {
			return false
		}
		for _, c := range l.Children {
			if c.ContainsOrSelf(a) && c.ContainsOrSelf(b) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// Property: a Subtree view is the subtree as a document — rooted at the node,
// as long as the subtree, one capacity-clipped run of the enclosing preorder —
// whose nodes keep the enclosing document's positions, through which ByOrd
// still resolves them; nothing outside the subtree resolves, and
// nothing is copied.
func TestSubtreeView(t *testing.T) {
	check := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		doc := randomTree(r, 2+r.Intn(60))
		all := doc.Nodes()
		n := all[r.Intn(len(all))]
		v := doc.Subtree(n)
		if !v.IsView() || doc.IsView() || v.Root != n || v.Len() != n.NodeCount() {
			return false
		}
		vs := v.Nodes()
		if cap(vs) != len(vs) {
			return false
		}
		for i, m := range vs {
			if m != all[n.Ord+i] || m.Ord != n.Ord+i {
				return false // not the enclosing run, or a node was touched
			}
			if v.ByOrd(m.Ord) != m {
				return false
			}
		}
		for _, m := range all {
			if !n.ContainsOrSelf(m) && v.ByOrd(m.Ord) != nil {
				return false
			}
		}
		// A view of a view is the same view of the enclosing document.
		m := vs[r.Intn(len(vs))]
		vv := v.Subtree(m)
		return vv.Root == m && vv.Len() == m.NodeCount() && vv.Nodes()[0] == all[m.Ord] &&
			vv.ComputeStats().MaxDepth == doc.Subtree(m).ComputeStats().MaxDepth
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}

	doc := buildSample()
	store := doc.Root.ChildElement("store")
	v := doc.Subtree(store)
	// Stats are the subtree's own: depth counts from the view root.
	if st := v.ComputeStats(); st.Nodes != store.NodeCount() || st.MaxDepth != 4 {
		t.Errorf("view stats = %+v", st)
	}
	// The view root keeps its place in the enclosing document.
	if store.Parent != doc.Root || v.Root.Ord == 0 {
		t.Errorf("view root was detached: parent %v ord %d", store.Parent, v.Root.Ord)
	}
}

// Property: ProjectSet yields a connected subtree whose node origins are
// exactly the ancestor closure of the selected set.
func TestProjectProperties(t *testing.T) {
	check := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		doc := randomTree(r, 2+r.Intn(40))
		ns := doc.Nodes()
		set := map[*Node]bool{}
		for i := 0; i < 1+r.Intn(5); i++ {
			set[ns[r.Intn(len(ns))]] = true
		}
		proj := ProjectSet(doc.Root, set)
		if proj == nil {
			return false
		}
		// Compute expected closure.
		closure := map[*Node]bool{doc.Root: true}
		for n := range set {
			for m := n; m != nil; m = m.Parent {
				closure[m] = true
			}
		}
		seen := 0
		ok := true
		proj.Walk(func(c *Node) bool {
			seen++
			if c.Origin == nil || !closure[c.Origin] {
				ok = false
			}
			// Connectivity: every non-root copy has a parent.
			if c != proj && c.Parent == nil {
				ok = false
			}
			return true
		})
		return ok && seen == len(closure)
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// Finalization is linear in nodes whatever the tree's shape: a 3 000-deep
// chain — the shape on which per-node path labels are quadratic (4.5 M ints,
// 36 MB) — costs a fixed number of bytes a node. The node itself stays at
// the 104 B the slab sizes downstream (remote's slabChunk) are tuned for.
func TestDeepChainAllocatesLinearly(t *testing.T) {
	if got := unsafe.Sizeof(Node{}); got != 104 {
		t.Errorf("Node is %d bytes, want 104", got)
	}
	const depth, perNode = 3000, 64
	root := Txt("leaf")
	for i := 0; i < depth; i++ {
		root = Elem("e", root)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	doc := NewDocument(root)
	runtime.ReadMemStats(&after)
	if st := doc.ComputeStats(); st.Nodes != depth+1 || st.MaxDepth != depth {
		t.Fatalf("chain finalized to %d nodes, depth %d", st.Nodes, st.MaxDepth)
	}
	if got := after.TotalAlloc - before.TotalAlloc; got > perNode*uint64(doc.Len()) {
		t.Errorf("NewDocument allocated %d B for %d nodes, want at most %d a node", got, doc.Len(), perNode)
	}
}

// symsConsistent checks the symbol ids of a finalized document: within each
// of the two spaces (labels on elements, values on text nodes) equal strings
// have equal ids, different strings different ones, and the ids are dense.
func symsConsistent(t *testing.T, name string, d *Document) {
	t.Helper()
	ids := [2]map[string]int32{{}, {}}
	byID := [2]map[int32]string{{}, {}}
	for _, n := range d.Nodes() {
		space, s := 0, n.Label
		if n.IsText() {
			space, s = 1, n.Value
		}
		if id, seen := ids[space][s]; seen && id != n.Sym {
			t.Fatalf("%s: %q has ids %d and %d", name, s, id, n.Sym)
		}
		if other, seen := byID[space][n.Sym]; seen && other != s {
			t.Fatalf("%s: id %d names both %q and %q", name, n.Sym, other, s)
		}
		ids[space][s], byID[space][n.Sym] = n.Sym, s
	}
	for space := range ids {
		for _, id := range ids[space] {
			if id < 0 || int(id) >= len(ids[space]) {
				t.Fatalf("%s: id %d outside the dense range of %d strings", name, id, len(ids[space]))
			}
		}
	}
}

// Every way a tree gets finalized in this package assigns the symbol ids,
// and they fit the padding after Kind: the node does not grow.
func TestSymbolIDs(t *testing.T) {
	if got := unsafe.Sizeof(Node{}); got > 104 {
		t.Errorf("Node is %d bytes, want at most 104", got)
	}
	src := `<r a="x"><s>x</s><s>r</s><t><s>y</s>x<r>s</r>tail</t><r/></r>`
	parsed, err := ParseString(src)
	if err != nil {
		t.Fatal(err)
	}
	symsConsistent(t, "parsed", parsed)
	// "x" is a value three times over and "r" a label three times over; the
	// value "r" and the label "r" live in different spaces.
	s1, s2 := parsed.Root.Children[1], parsed.Root.Children[2]
	if s1.Sym != s2.Sym || s1.Children[0].Sym == s2.Children[0].Sym {
		t.Errorf("labels %d %d values %d %d", s1.Sym, s2.Sym, s1.Children[0].Sym, s2.Children[0].Sym)
	}

	built := NewDocument(Elem("r", Attr("a", "x"), Elem("s", Txt("x")), Elem("r")))
	symsConsistent(t, "built", built)

	// A copy finalized on its own is numbered on its own: the subtree's
	// first label gets id 0 whatever it had in the source.
	tnode := parsed.Root.Children[3]
	copied := NewDocument(DeepCopy(tnode))
	symsConsistent(t, "copied", copied)
	if copied.Root.Sym != 0 || tnode.Sym == 0 {
		t.Errorf("copy root id %d, source id %d", copied.Root.Sym, tnode.Sym)
	}
	// A view shares the source's nodes and so its ids.
	symsConsistent(t, "source after copy", parsed)
	if view := parsed.Subtree(tnode); view.Root.Sym != tnode.Sym {
		t.Error("a view renumbered its nodes")
	}
}
