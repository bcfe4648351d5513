package search

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"testing"

	"extract/internal/index"
	"extract/xmltree"
)

// TestDeferredTreeBuiltOnce: a deferred result answers Size, IsView,
// Retained and MatchDepth from what it was made with, builds nothing until
// Tree is called, and builds exactly once however many goroutines make the
// first call together — every caller getting the same tree.
func TestDeferredTreeBuiltOnce(t *testing.T) {
	doc := xmltree.NewDocument(xmltree.Elem("store", xmltree.Elem("city", xmltree.Txt("houston"))))
	var builds atomic.Int32
	d := deferOne(doc.Len(), 77, []KeywordDepth{{"houston", 2}}, func(context.Context) (*Result, error) {
		builds.Add(1)
		return FromNode(doc, doc.Root), nil
	})
	if d.Size() != doc.Len()-1 || d.IsView() {
		t.Fatalf("deferred result: size %d, view %v", d.Size(), d.IsView())
	}
	if n, ok := d.Retained(); n != 77 || !ok {
		t.Fatalf("Retained() = %d, %v", n, ok)
	}
	if depth, ok := d.MatchDepth("houston"); depth != 2 || !ok {
		t.Fatalf("MatchDepth(houston) = %d, %v", depth, ok)
	}
	if _, ok := d.MatchDepth("dallas"); ok {
		t.Fatal("MatchDepth of an unmatched keyword reports a match")
	}
	if builds.Load() != 0 {
		t.Fatal("the tree was built before anything asked for it")
	}

	const readers = 32
	trees := make([]*Result, readers)
	start := make(chan struct{})
	var wg sync.WaitGroup
	for i := range trees {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			trees[i], _ = d.Tree(context.Background())
		}()
	}
	close(start)
	wg.Wait()
	if n := builds.Load(); n != 1 {
		t.Fatalf("%d concurrent first reads built the tree %d times", readers, n)
	}
	for i, tree := range trees {
		if tree != trees[0] || tree.Root != doc.Root {
			t.Fatalf("reader %d got a different tree", i)
		}
	}
	if tree := trees[0]; must(tree.Tree(context.Background())) != tree {
		t.Fatal("a built result is not its own tree")
	}
	if _, ok := trees[0].Retained(); ok {
		t.Fatal("a built result claims to be deferred")
	}
	if _, ok := d.Retained(); ok {
		t.Fatal("a deferred result whose tree was built still claims to be deferred")
	}
}

// treeSource is the Source of a batch of one deferred result: calling build
// builds the result's tree.
type treeSource struct {
	Batch
	build func(context.Context) (*Result, error)
}

func (s *treeSource) Trees(ctx context.Context, _ []int, trees []*Result) (err error) {
	trees[0], err = s.build(ctx)
	return err
}

// deferOne is a batch of one deferred result (Defer) whose tree build makes.
func deferOne(nodes, retained int, depths []KeywordDepth, build func(context.Context) (*Result, error)) *Result {
	return Defer(&treeSource{build: build}, 1, func(int) (int, int, []KeywordDepth) { return nodes, retained, depths })[0]
}

// indexedTrees is a Source that builds result i's tree as the i-th node of
// its document, counting the builds of each.
type indexedTrees struct {
	Batch
	doc    *xmltree.Document
	builds []int
}

func (s *indexedTrees) Trees(_ context.Context, missing []int, trees []*Result) error {
	for _, i := range missing {
		s.builds[i]++
		trees[i] = FromNode(s.doc, s.doc.ByOrd(i))
	}
	return nil
}

// TestDeferredBatchBuildsEachResult: every result of a batch answers from
// what at told it, and builds its own tree — result i asks its source for
// tree i — once.
func TestDeferredBatchBuildsEachResult(t *testing.T) {
	doc := xmltree.NewDocument(xmltree.Elem("a", xmltree.Elem("b"), xmltree.Elem("c")))
	src := &indexedTrees{doc: doc, builds: make([]int, doc.Len())}
	rs := Defer(src, doc.Len(), func(i int) (int, int, []KeywordDepth) {
		return i + 1, 8 * i, []KeywordDepth{{"k", i}}
	})
	for i, r := range rs {
		n, deferred := r.Retained()
		if d, ok := r.MatchDepth("k"); r.Size() != i || n != 8*i || !deferred || d != i || !ok {
			t.Fatalf("result %d: size %d, retained %d (%v), depth %d (%v)", i, r.Size(), n, deferred, d, ok)
		}
	}
	for range 2 {
		for i, r := range rs {
			if tree := must(r.Tree(context.Background())); tree.Root != doc.ByOrd(i) {
				t.Fatalf("result %d built the tree of node %d", i, tree.Root.Ord)
			}
		}
	}
	for i, n := range src.builds {
		if n != 1 {
			t.Fatalf("result %d's tree built %d times", i, n)
		}
	}
}

// must returns a tree a test expects to build.
func must(r *Result, err error) *Result {
	if err != nil {
		panic(err)
	}
	return r
}

// TestDeferredTreeRetriesAFailedBuild: a build that fails returns its error
// and leaves the result deferred, so the next Tree call builds again; once
// one succeeds, no call builds any more.
func TestDeferredTreeRetriesAFailedBuild(t *testing.T) {
	doc := xmltree.NewDocument(xmltree.Elem("store"))
	errGone := errors.New("gone")
	builds := 0
	d := deferOne(doc.Len(), 1, nil, func(context.Context) (*Result, error) {
		builds++
		if builds == 1 {
			return nil, errGone
		}
		return FromNode(doc, doc.Root), nil
	})
	if tree, err := d.Tree(context.Background()); tree != nil || !errors.Is(err, errGone) {
		t.Fatalf("first read: %v, %v; want the build's error", tree, err)
	}
	first := must(d.Tree(context.Background()))
	if second := must(d.Tree(context.Background())); second != first || builds != 2 {
		t.Fatalf("%d builds; reads after a success differ: %v", builds, second != first)
	}
}

// TestDeferredTreeWaitHonorsContext: a reader that finds a build already
// running waits for it only as long as its own context allows, and the
// build's own reader still gets the tree.
func TestDeferredTreeWaitHonorsContext(t *testing.T) {
	doc := xmltree.NewDocument(xmltree.Elem("store"))
	started, release := make(chan struct{}), make(chan struct{})
	d := deferOne(doc.Len(), 1, nil, func(context.Context) (*Result, error) {
		close(started)
		<-release
		return FromNode(doc, doc.Root), nil
	})
	built := make(chan *Result)
	go func() { built <- must(d.Tree(context.Background())) }()
	<-started
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if tree, err := d.Tree(ctx); tree != nil || !errors.Is(err, context.Canceled) {
		t.Fatalf("waiter with a cancelled context: %v, %v", tree, err)
	}
	close(release)
	if tree := <-built; tree.Root != doc.Root || must(d.Tree(ctx)) != tree {
		t.Fatal("the build's reader and a later reader got different trees")
	}
}

// TestMatchDepthIsTheShallowestMatch: a tree result's MatchDepth is its
// shallowest match below the anchor, the number ranking reads — also when
// the anchor itself is the first match (depth 0), when the one depth-1
// match of a run inside the anchor comes last, past the deeper ones, and
// when a run starts inside an anchor below the result's root and ends
// outside it, at the anchor's own depth.
func TestMatchDepthIsTheShallowestMatch(t *testing.T) {
	doc := xmltree.NewDocument(xmltree.Elem("store",
		xmltree.Elem("clothes", xmltree.Elem("name", xmltree.Txt("jeans"))),
		xmltree.Elem("name", xmltree.Txt("jeans")),
		xmltree.Elem("store")))
	r := FromNode(doc, doc.Root)
	deep, shallow := doc.Root.Children[0].Children[0].Children[0], doc.Root.Children[1].Children[0]
	child := doc.Root.Children[2]
	r.OwnMatches([]string{"jeans", "none", "store", "store jeans"}, []*index.PostingList{
		index.PackNodes([]*xmltree.Node{deep, shallow}),
		index.PackNodes(nil),
		index.PackNodes([]*xmltree.Node{doc.Root, child}),
		index.PackNodes([]*xmltree.Node{deep, shallow, child}),
	})
	for kw, want := range map[string]int{"jeans": 2, "store": 0, "store jeans": 1} {
		if d, ok := r.MatchDepth(kw); d != want || !ok {
			t.Fatalf("MatchDepth(%s) = %d, %v; want %d", kw, d, ok, want)
		}
	}
	if _, ok := r.MatchDepth("none"); ok {
		t.Fatal("a keyword with no matches reports a depth")
	}
	below := FromNode(doc, doc.Root)
	below.Anchor = doc.Root.Children[0]
	below.OwnMatches([]string{"store jeans"}, []*index.PostingList{index.PackNodes([]*xmltree.Node{deep, shallow, child})})
	if d, ok := below.MatchDepth("store jeans"); d != 0 || !ok {
		t.Fatalf("MatchDepth with matches past the anchor = %d, %v; want 0", d, ok)
	}
}
