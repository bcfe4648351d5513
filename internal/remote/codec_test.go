package remote

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"maps"
	"math"
	"runtime"
	"slices"
	"testing"
	"unsafe"

	"extract/internal/core"
	"extract/internal/features"
	"extract/internal/gen"
	"extract/internal/ilist"
	"extract/internal/index"
	"extract/internal/search"
	"extract/internal/selector"
	"extract/internal/shard"
	"extract/xmltree"
)

// referenceResult is the frozen reference decoder: the per-node decoder the
// router ran before decoding was split into scan and build — one
// &xmltree.Node{} and one string per node, children appended one by one, the
// tree finalized by a second walk (xmltree.NewDocument). It decodes exactly
// one encoded result and is what scan+build is pinned against, field for
// field. Do not optimize it.
func referenceResult(enc []byte) (*search.Result, error) {
	c := newCursor(enc)
	total := c.count("tree node", maxTreeNodes, 0)
	if c.Err() != nil {
		return nil, c.Err()
	}
	if total == 0 {
		return nil, protocolErrf("empty result tree")
	}
	type pending struct {
		node *xmltree.Node
		left int
	}
	var root *xmltree.Node
	stack := make([]pending, 0, 16)
	for i := 0; i < total; i++ {
		flags := c.U8("node flags")
		s := c.str("node text")
		kids := c.count("child", uint64(total), 0)
		if c.Err() != nil {
			return nil, c.Err()
		}
		n := &xmltree.Node{}
		if flags&nodeKindText != 0 {
			n.Kind = xmltree.KindText
			n.Value = s
			if kids != 0 {
				return nil, protocolErrf("text node with %d children", kids)
			}
		} else {
			n.Label = s
		}
		n.FromAttr = flags&nodeFromAttr != 0
		if len(stack) == 0 {
			if root != nil {
				return nil, protocolErrf("multiple roots in result tree")
			}
			root = n
		} else {
			top := &stack[len(stack)-1]
			n.Parent = top.node
			top.node.Children = append(top.node.Children, n)
			top.left--
			for len(stack) > 0 && stack[len(stack)-1].left == 0 {
				stack = stack[:len(stack)-1]
			}
		}
		if kids > 0 {
			stack = append(stack, pending{node: n, left: kids})
		}
	}
	if len(stack) != 0 {
		return nil, protocolErrf("result tree truncated: %d unfilled child slots", stack[len(stack)-1].left)
	}
	doc := xmltree.NewDocument(root)

	r := &search.Result{Root: root, Doc: doc, Anchor: root, LCA: root}
	if lca := c.Uvarint("lca ordinal"); lca > 0 {
		if int(lca-1) >= total {
			return nil, protocolErrf("lca ordinal %d out of range", lca-1)
		}
		r.LCA = doc.ByOrd(int(lca - 1))
	}
	nkw := c.count("match keyword", maxWireStrings, 0)
	matches := make(map[string][]*xmltree.Node, nkw)
	for i := 0; i < nkw; i++ {
		kw := c.str("match keyword")
		n := c.count("match ordinal", uint64(total), 0)
		ms := make([]*xmltree.Node, 0, n)
		for j := 0; j < n; j++ {
			ord := c.Uvarint("match ordinal")
			if ord >= uint64(total) {
				return nil, protocolErrf("match ordinal %d out of range", ord)
			}
			ms = append(ms, doc.ByOrd(int(ord)))
		}
		if c.Err() != nil {
			return nil, c.Err()
		}
		matches[kw] = ms
	}
	return withMatches(r, matches), c.Done()
}

// withMatches gives r, a result under construction, the matches of each
// keyword of m (search.Result.OwnMatches) and returns it.
func withMatches(r *search.Result, m map[string][]*xmltree.Node) *search.Result {
	kws := slices.Sorted(maps.Keys(m))
	lists := make([]*index.PostingList, len(kws))
	for i, kw := range kws {
		lists[i] = index.PackNodes(m[kw])
	}
	r.OwnMatches(kws, lists)
	return r
}

// sameResult compares two decoded results field for field: every node's
// Kind/Label/Value/FromAttr/Ord/Start/End, Parent and Children by
// position, the LCA's position, and Matches keyword by keyword, position by
// position.
func sameResult(want, got *search.Result) error {
	wn, gn := want.Doc.Nodes(), got.Doc.Nodes()
	if len(wn) != len(gn) {
		return fmt.Errorf("%d nodes, want %d", len(gn), len(wn))
	}
	ord := func(n *xmltree.Node) int {
		if n == nil {
			return -1
		}
		return n.Ord
	}
	for i, w := range wn {
		g := gn[i]
		if g.Kind != w.Kind || g.Label != w.Label || g.Value != w.Value || g.FromAttr != w.FromAttr {
			return fmt.Errorf("node %d content = %v %q %q attr=%v, want %v %q %q attr=%v",
				i, g.Kind, g.Label, g.Value, g.FromAttr, w.Kind, w.Label, w.Value, w.FromAttr)
		}
		if g.Ord != w.Ord || g.Start != w.Start || g.End != w.End {
			return fmt.Errorf("node %d position = ord %d [%d,%d], want ord %d [%d,%d]",
				i, g.Ord, g.Start, g.End, w.Ord, w.Start, w.End)
		}
		if ord(g.Parent) != ord(w.Parent) || (g.Parent != nil && g.Parent != gn[g.Parent.Ord]) {
			return fmt.Errorf("node %d parent = %d, want %d", i, ord(g.Parent), ord(w.Parent))
		}
		if g.Origin != nil {
			return fmt.Errorf("node %d carries an Origin", i)
		}
		if len(g.Children) != len(w.Children) {
			return fmt.Errorf("node %d has %d children, want %d", i, len(g.Children), len(w.Children))
		}
		for j, c := range g.Children {
			if c.Ord != w.Children[j].Ord || c != gn[c.Ord] {
				return fmt.Errorf("node %d child %d = ord %d, want %d", i, j, c.Ord, w.Children[j].Ord)
			}
		}
	}
	if got.Root != gn[0] || got.Anchor != gn[0] || got.Doc.Root != gn[0] {
		return errors.New("Root, Anchor and Doc.Root are not the rebuilt root")
	}
	if got.LCA == nil || got.LCA.Ord != want.LCA.Ord || got.LCA != gn[got.LCA.Ord] {
		return fmt.Errorf("lca = %d, want %d", ord(got.LCA), want.LCA.Ord)
	}
	if len(got.MatchKeywords()) != len(want.MatchKeywords()) {
		return fmt.Errorf("%d match keywords, want %d", len(got.MatchKeywords()), len(want.MatchKeywords()))
	}
	for _, kw := range want.MatchKeywords() {
		wms := want.Matches(kw)
		gms := got.Matches(kw)
		if ok := gms != nil; !ok || len(gms) != len(wms) {
			return fmt.Errorf("keyword %q: %d matches (present %v), want %d", kw, len(gms), ok, len(wms))
		}
		for j, m := range gms {
			if m.Ord != wms[j].Ord || m != gn[m.Ord] {
				return fmt.Errorf("keyword %q match %d = ord %d, want %d", kw, j, m.Ord, wms[j].Ord)
			}
		}
	}
	return nil
}

// codecAnswer is one answer of the codec fixture: what a shard server's
// evaluate and fullEval ship and, in a snippeted one, the snippets its
// snippets handler makes of every result evaluate shipped, in shipping order.
type codecAnswer struct {
	evalAnswer
	full     fullAnswer
	snippets []*core.Generated
}

// codecAnswers evaluates a query × options matrix on small sharded corpora
// through a shard server's own evaluate, fullEval and snippets, so the codec
// tests and the fuzz seeds work on exactly what a server ships: views at
// non-zero offsets of their source documents, ModeXSeek projections, skipped
// shards, digests — each answer search only, and again at a snippet bound,
// its eval and full responses carrying their records. The request names every
// shard, all one leading run, so evaluate snippets every result it ships:
// exactly the records the snippets handler makes of them by handle.
func codecAnswers(tb testing.TB) []codecAnswer {
	tb.Helper()
	var out []codecAnswer
	results := 0
	for _, cc := range testCorpora()[:2] { // figure1, stores
		sc := shard.Build(cc.mk(), 3)
		srv := NewServer(sc)
		st := srv.state.Load()
		queries := testQueries(cc.mk())
		for _, opts := range []search.Options{
			{DistinctAnchors: true},
			{DistinctAnchors: true, Semantics: search.SemanticsELCA},
			{DistinctAnchors: true, Mode: search.ModeXSeek},
		} {
			for _, q := range queries {
				answer := func(bound int) (evalAnswer, fullAnswer, error) {
					a, err := srv.evaluate(st, evalReq{opts: opts, query: q, shards: st.ownedList, bound: bound})
					if err != nil {
						return a, fullAnswer{}, err
					}
					full, err := srv.fullEval(st, evalReq{opts: opts, query: q, bound: bound})
					if err != nil {
						tb.Fatalf("%q: %v", q, err)
					}
					return a, full, nil
				}
				a, full, err := answer(-1)
				if err != nil {
					continue // the matrix includes the empty query
				}
				_, handles := shippedOf(a)
				results += len(handles)
				out = append(out, codecAnswer{evalAnswer: a, full: full})
				if len(handles) > 0 {
					set, err := srv.snippets(st, treesReq{opts: opts, query: q, fingerprint: st.fingerprint, bound: 6, handles: handles})
					if err != nil {
						tb.Fatalf("%q: %v", q, err)
					}
					recs := recordStrings(set)
					a, full, err := answer(6)
					if err != nil {
						tb.Fatalf("%q at a bound: %v", q, err)
					}
					var carried []string
					for _, s := range a.shards {
						carried = append(carried, recordStrings(s.records)...)
					}
					if !slices.Equal(carried, recs) {
						tb.Fatalf("%q: the eval round carried %d records, not the %d the snippets handler makes", q, len(carried), len(recs))
					}
					gs, slab := make([]*core.Generated, len(recs)), core.NewServedSnippets(len(recs))
					for i, rec := range recs {
						gs[i] = slab.Serve(i, rec, index.Tokenize(q), 6)
					}
					out = append(out, codecAnswer{evalAnswer: a, full: full, snippets: gs})
				}
			}
		}
	}
	if results < 20 {
		tb.Fatalf("codec fixture carries only %d results", results)
	}
	return out
}

// shippedOf returns the results of the hits an eval answer ships, in
// shipping order, built on the answer's round, and their handles: what the
// server's trees and snippets handlers rebuild by handle.
func shippedOf(a evalAnswer) (rs []*search.Result, handles []handle) {
	for _, s := range a.shards {
		rs = a.round.Build(rs, s.hits)
		for _, h := range s.hits {
			handles = append(handles, handle{shard: int32(s.shard), anchor: h.Anchor, lca: h.LCA})
		}
	}
	return rs, handles
}

// syntheticResults are the shapes no generated corpus reliably produces.
func syntheticResults() map[string]*search.Result {
	view := func(root *xmltree.Node) *search.Result {
		doc := xmltree.NewDocument(root)
		return search.FromNode(doc, doc.Root)
	}
	out := map[string]*search.Result{}

	out["childless root"] = view(xmltree.Elem("empty"))

	// A chain deep enough that a recursive decoder would be walking its own
	// stack.
	chain := xmltree.Txt("bottom")
	for i := 0; i < 10_000; i++ {
		chain = xmltree.Elem("d", chain)
	}
	deep := view(chain)
	withMatches(deep, map[string][]*xmltree.Node{"bottom": {deep.Doc.ByOrd(deep.Doc.Len() - 1)}})
	deep.LCA = deep.Doc.ByOrd(1200)
	out["deep chain"] = deep

	id := xmltree.Attr("id", "α-7")
	id.FromAttr = true
	lang := xmltree.Attr("lang", "")
	lang.FromAttr = true
	text := view(xmltree.Elem("livre", id, lang,
		xmltree.Elem("titre", xmltree.Txt("Les Misérables — 悲惨世界")),
		xmltree.Elem("", xmltree.Txt("")),
		xmltree.Txt("mixed ✓ content")))
	withMatches(text, map[string][]*xmltree.Node{"misérables": {text.Doc.ByOrd(6)}, "✓": {text.Doc.ByOrd(9)}})
	out["attributes and multi-byte text"] = text

	// A projection that dropped the LCA and some matches: the encoder finds
	// source nodes through the copies' Origin pointers and omits the rest.
	src := xmltree.NewDocument(xmltree.Elem("store",
		xmltree.Elem("name", xmltree.Txt("Levis")),
		xmltree.Elem("city", xmltree.Txt("Houston")),
		xmltree.Elem("state", xmltree.Txt("Texas"))))
	name, city, state := src.Root.Children[0], src.Root.Children[1], src.Root.Children[2]
	proj := xmltree.ProjectSet(src.Root, map[*xmltree.Node]bool{
		name: true, name.Children[0]: true, state: true, state.Children[0]: true,
	})
	out["projection that dropped lca and matches"] = withMatches(&search.Result{
		Root: proj, Doc: xmltree.NewDocument(proj), Anchor: src.Root, LCA: city,
	}, map[string][]*xmltree.Node{
		"houston": {city.Children[0]},
		"texas":   {city, state.Children[0]},
	})
	return out
}

// scanOne scans an encoding that holds exactly one tree record.
func scanOne(t *testing.T, enc []byte) treeRecord {
	t.Helper()
	c := newCursor(enc)
	s := c.scanResult()
	if err := c.Done(); err != nil {
		t.Fatalf("scan: %v", err)
	}
	if len(s.enc) != len(enc) || &s.enc[0] != &enc[0] {
		t.Fatalf("scanned range is %d bytes, the encoding %d", len(s.enc), len(enc))
	}
	return s
}

// checkContract pins what the rest of the system relies on in a
// wire-decoded result (see search.Result): an owned, finalized tree whose
// anchor is its root, with positions relative to that root.
func checkContract(t *testing.T, sent, r *search.Result) {
	t.Helper()
	if r.IsView() {
		t.Fatal("decoded result claims to be a view")
	}
	if r.Root != r.Anchor || r.Root != r.Doc.Root {
		t.Fatal("Root, Anchor and Doc.Root differ")
	}
	if r.Root.Ord != 0 || r.Root.Parent != nil {
		t.Fatalf("root: ord %d, parent %v", r.Root.Ord, r.Root.Parent)
	}
	if r.Size() != sent.Size() {
		t.Fatalf("size %d, sent %d", r.Size(), sent.Size())
	}
	// The symbol ids are the ones finalizing the same tree afresh assigns.
	fresh := xmltree.NewDocument(xmltree.DeepCopy(r.Root)).Nodes()
	for i, n := range r.Doc.Nodes() {
		if r.Doc.ByOrd(n.Ord) != n {
			t.Fatalf("ByOrd(%d) is not the node", n.Ord)
		}
		if n.Sym != fresh[i].Sym {
			t.Fatalf("node %d (%v) has symbol id %d, a fresh finalization gives %d", i, n, n.Sym, fresh[i].Sym)
		}
	}
	// The decoded result matches each sent keyword at the positions of the
	// sent matches inside the encoded tree: all of a view's, relative to its
	// root, and those a projection kept, found through its copies' Origin
	// pointers. Its match keywords are exactly the sent keywords left with
	// one; a keyword whose matches a projection all dropped has none.
	pos := func(m *xmltree.Node) (int, bool) { return m.Ord - sent.Root.Ord, true }
	if !sent.IsView() {
		origin := make(map[*xmltree.Node]int)
		for _, n := range sent.Doc.Nodes() {
			if n.Origin != nil {
				origin[n.Origin] = n.Ord
			}
		}
		pos = func(m *xmltree.Node) (int, bool) {
			ord, ok := origin[m]
			return ord, ok
		}
	}
	var kept []string
	for _, kw := range sent.MatchKeywords() {
		var want []int
		for _, m := range sent.Matches(kw) {
			if ord, ok := pos(m); ok {
				want = append(want, ord)
			}
		}
		if len(want) > 0 {
			kept = append(kept, kw)
		}
		ms := r.Matches(kw)
		if len(ms) != len(want) {
			t.Fatalf("keyword %q: %d matches, sent %d inside the tree", kw, len(ms), len(want))
		}
		for j, m := range ms {
			if r.Doc.ByOrd(m.Ord) != m {
				t.Fatalf("keyword %q match %d points outside the rebuilt tree", kw, j)
			}
			if m.Ord != want[j] {
				t.Fatalf("keyword %q match %d at %d, sent at %d", kw, j, m.Ord, want[j])
			}
			if j > 0 && m.Ord <= ms[j-1].Ord {
				t.Fatalf("keyword %q matches out of document order", kw)
			}
		}
	}
	if got := r.MatchKeywords(); !slices.Equal(got, kept) {
		t.Fatalf("match keywords %q, sent %q with a match inside the tree", got, kept)
	}
}

// TestScanBuildEqualsReference is the pin that keeps the split decoder
// honest: for everything a server ships and for the awkward shapes, scan +
// build produces exactly the tree the old per-node decoder produced, and
// that tree honours the decoded-result contract.
func TestScanBuildEqualsReference(t *testing.T) {
	check := func(name string, r *search.Result) {
		t.Helper()
		enc := appendResult(nil, r)
		want, err := referenceResult(enc)
		if err != nil {
			t.Fatalf("%s: reference decoder: %v", name, err)
		}
		s := scanOne(t, enc)
		got := s.build()
		if err := sameResult(want, got); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		checkContract(t, r, got)
		if s.nodes != got.Doc.Len() {
			t.Fatalf("%s: scan counted %d nodes, the tree has %d", name, s.nodes, got.Doc.Len())
		}
	}
	views, projections := 0, 0
	for _, a := range codecAnswers(t) {
		rs, handles := shippedOf(a.evalAnswer)
		for i, r := range rs {
			if r.IsView() {
				views++
			} else {
				projections++
			}
			check(fmt.Sprintf("shard %d result %d", handles[i].shard, i), r)
		}
	}
	if views == 0 || projections == 0 {
		t.Fatalf("fixture lost a result kind: %d views, %d projections", views, projections)
	}
	for name, r := range syntheticResults() {
		check(name, r)
	}

	// What the projection dropped is gone from the wire: no LCA position
	// (the decoded LCA falls back to the root), only the kept match.
	dropped := scanOne(t, appendResult(nil, syntheticResults()["projection that dropped lca and matches"])).build()
	if dropped.LCA != dropped.Root || len(dropped.Matches("houston")) != 0 || len(dropped.Matches("texas")) != 1 {
		t.Fatalf("projection drops: lca ord %d, matches %v", dropped.LCA.Ord, dropped.MatchKeywords())
	}
}

// wideResult is a three-level tree of about n nodes with one matched keyword.
func wideResult(n int) *search.Result {
	root := xmltree.Elem("root")
	for count := 1; count < n; {
		branch := xmltree.Elem("branch")
		xmltree.Append(root, branch)
		count++
		for i := 0; i < 99 && count < n; i++ {
			xmltree.Append(branch, xmltree.Txt("leaf"))
			count++
		}
	}
	doc := xmltree.NewDocument(root)
	r := search.FromNode(doc, doc.Root)
	return withMatches(r, map[string][]*xmltree.Node{"leaf": {doc.ByOrd(2), doc.ByOrd(doc.Len() - 1)}})
}

// TestBuildAllocatesPerChunkNotPerNode: build costs a constant number of
// allocations per result plus one per slab chunk, whatever the node count.
func TestBuildAllocatesPerChunkNotPerNode(t *testing.T) {
	allocs := func(n int) (float64, int) {
		s := scanOne(t, appendResult(nil, wideResult(n)))
		if s.nodes != n {
			t.Fatalf("fixture has %d nodes, want %d", s.nodes, n)
		}
		var sink *search.Result
		a := testing.AllocsPerRun(20, func() { sink = s.build() })
		_ = sink
		return a, (n + slabChunk - 1) / slabChunk
	}
	small, smallChunks := allocs(11)
	large, largeChunks := allocs(10000)
	if small-float64(smallChunks) != large-float64(largeChunks) {
		t.Fatalf("build allocations grow with nodes: %v for 11 nodes (%d chunks), %v for 10000 (%d chunks)",
			small, smallChunks, large, largeChunks)
	}
	if small > 12 {
		t.Fatalf("build of an 11-node result allocates %v times", small)
	}
}

// TestScanAllocatesNothingPerResult: decoding a response scans every result
// and allocates per shard list only — a response full of results the merge
// will drop costs the same allocations as one with almost none. A trees
// response, likewise, allocates its record list and nothing per tree.
func TestScanAllocatesNothingPerResult(t *testing.T) {
	r := wideResult(40)
	response := func(perShard int) []byte {
		a := evalAnswer{terms: []string{"leaf", "branch"}}
		for s := uint32(0); s < 3; s++ {
			sa := shardAnswer{shard: s, digest: shard.Digest{Matched: []bool{true}, HasNonRootLCAs: true}}
			for i := 0; i < perShard; i++ {
				sa.hits = append(sa.hits, search.Hit{})
				sa.shipped = appendShipOf(sa.shipped, r, a.terms)
			}
			a.shards = append(a.shards, sa)
		}
		return appendEvalResp(nil, a)
	}
	allocs := func(perShard int) float64 {
		data := response(perShard)
		return testing.AllocsPerRun(20, func() {
			resp, err := decodeEvalResp(data, 2, -1)
			if err != nil || len(resp.shards[2].results) != perShard {
				t.Fatalf("decode: %v", err)
			}
		})
	}
	if few, many := allocs(1), allocs(200); few != many {
		t.Fatalf("scan allocations grow with results: %v for 3 results, %v for 600", few, many)
	}
	trees := func(n int) float64 {
		rs := make([]*search.Result, n)
		for i := range rs {
			rs[i] = r
		}
		data := appendTreesResp(nil, rs)
		return testing.AllocsPerRun(20, func() {
			if recs, err := decodeTreesResp(data); err != nil || len(recs) != n {
				t.Fatalf("decode: %d trees, %v", len(recs), err)
			}
		})
	}
	if one, many := trees(1), trees(300); one != many {
		t.Fatalf("trees scan allocations grow with trees: %v for 1, %v for 300", one, many)
	}
}

// TestScannedStaysSmall: a scanned range is copied for every shipped result
// (cursor.results) and again for every winner (shard.MergeResults), so on a
// 64-bit platform it stays at 48 bytes — its handle, an int32 node count,
// and its depths and record as strings over the payload.
func TestScannedStaysSmall(t *testing.T) {
	if unsafe.Sizeof(uintptr(0)) != 8 {
		t.Skip("the size is pinned for 64-bit platforms")
	}
	if n := unsafe.Sizeof(scanned{}); n != 48 {
		t.Fatalf("a scanned range is %d bytes, want 48", n)
	}
}

// TestScanRejectsMalformedResults walks the checks that moved from the
// per-node decoder into the scan (plus the child-count sum the arenas are
// sized from): each malformed encoding is a *ProtocolError, never a range.
func TestScanRejectsMalformedResults(t *testing.T) {
	node := func(flags byte, text string, kids uint64) []byte {
		b := appendString([]byte{flags}, text)
		return binary.AppendUvarint(b, kids)
	}
	cat := func(parts ...[]byte) []byte {
		var b []byte
		for _, p := range parts {
			b = append(b, p...)
		}
		return b
	}
	uv := func(v uint64) []byte { return binary.AppendUvarint(nil, v) }
	tail := []byte{0, 0} // no lca, no match keywords
	for _, tc := range []struct {
		name string
		enc  []byte
	}{
		{"empty tree", cat(uv(0), tail)},
		{"node count over cap", cat(uv(maxTreeNodes+1), tail)},
		{"text node with children", cat(uv(2), node(nodeKindText, "t", 1), node(0, "a", 0), tail)},
		{"multiple roots", cat(uv(2), node(0, "a", 0), node(0, "b", 0), tail)},
		{"unfilled child slots", cat(uv(2), node(0, "a", 1), tail)},
		{"child count over node count", cat(uv(2), node(0, "a", 3), node(0, "b", 0), tail)},
		{"child counts summing past the nodes", cat(uv(3), node(0, "a", 1), node(0, "b", 2), node(0, "c", 0), tail)},
		{"string past the payload", cat(uv(1), []byte{0}, uv(1<<30), []byte("ab"))},
		{"lca out of range", cat(uv(1), node(0, "a", 0), uv(2), uv(0))},
		{"match ordinal out of range", cat(uv(1), node(0, "a", 0), uv(0), uv(1), appendString(nil, "kw"), uv(1), uv(1))},
		{"more match ordinals than nodes", cat(uv(1), node(0, "a", 0), uv(0), uv(1), appendString(nil, "kw"), uv(2), uv(0), uv(0))},
		{"match keyword count over cap", cat(uv(1), node(0, "a", 0), uv(0), uv(maxWireStrings+1))},
		{"trailing bytes", cat(uv(1), node(0, "a", 0), tail, []byte{7})},
	} {
		c := newCursor(tc.enc)
		c.scanResult()
		var pe *ProtocolError
		if err := c.Done(); !errors.As(err, &pe) {
			t.Errorf("%s: err = %v, want a *ProtocolError", tc.name, err)
		}
		if _, err := referenceResult(tc.enc); !errors.As(err, &pe) {
			t.Errorf("%s: the reference decoder accepts it (%v); the case is not a moved check", tc.name, err)
		}
	}

	// The snippet record: each malformed one is a *ProtocolError too, alone
	// and inside the snippets, eval or full response that carries it.
	item := func(kind byte) []byte {
		b := appendString([]byte{kind}, "texas")
		b = append(b, 0, 0, 0) // no feature entity, attribute, value
		b = binary.AppendVarint(b, -1)
		return append(b, make([]byte, 8)...) // score bits
	}
	// A record leads with its head: the XML, the edge count, the result key.
	head := func(edges uint64) []byte { return cat(appendString(nil, "<a/>"), uv(edges), appendString(nil, "")) }
	snip := func(tree []byte, edges uint64, items []byte, covered, skipped []byte) []byte {
		b := cat(head(edges), tree, items, uv(0), appendString(nil, ""))
		return cat(b, covered, skipped)
	}
	leaf := cat(uv(1), node(0, "a", 0))
	oneItem := cat(uv(1), item(0))
	valid := snip(leaf, 0, oneItem, cat(uv(1), uv(0)), uv(0))
	if c := newCursor(valid); c.scanSnippet() == nil || c.Done() != nil {
		t.Fatalf("the valid snippet record does not scan: %v", c.Done())
	}
	for _, tc := range []struct {
		name string
		rec  []byte
	}{
		{"empty snippet tree", snip(uv(0), 0, oneItem, uv(0), uv(0))},
		{"edges past the snippet's nodes", snip(leaf, 1, oneItem, uv(0), uv(0))},
		{"unknown item kind", snip(leaf, 0, cat(uv(1), item(9)), uv(0), uv(0))},
		{"item count past the payload", snip(leaf, 0, cat(uv(400), item(0)), uv(0), uv(0))},
		{"covered index out of range", snip(leaf, 0, oneItem, cat(uv(1), uv(1)), uv(0))},
		{"more skipped indexes than items", snip(leaf, 0, oneItem, uv(0), cat(uv(2), uv(0), uv(0)))},
		{"truncated score", valid[:len(valid)-6]},
		{"trailing bytes", cat(valid, []byte{7})},
		{"xml past its record", cat(uv(uint64(len(valid))), valid[1:])},
		{"edge count cut short", cat(appendString(nil, "<a/>"), []byte{0x80})},
		{"key cut short", cat(appendString(nil, "<a/>"), uv(0), uv(5), []byte("ab"))},
	} {
		c := newCursor(tc.rec)
		c.scanSnippet()
		var pe *ProtocolError
		if err := c.Done(); !errors.As(err, &pe) {
			t.Errorf("%s: err = %v, want a *ProtocolError", tc.name, err)
		}
		// The same record behind a valid one in a snippets response, and as
		// the record of a shipped result in an eval and a full response.
		if _, err := decodeSnippetsResp(cat(uv(2), valid, tc.rec)); !errors.As(err, &pe) {
			t.Errorf("%s inside a response: err = %v, want a *ProtocolError", tc.name, err)
		}
		shipped := cat(uv(3), uv(0), uv(1), uv(3))
		if _, err := decodeEvalResp(cat(uv(1), uv(0), []byte{0, 0}, uv(1), shipped, uv(1), tc.rec), 1, 1); !errors.As(err, &pe) {
			t.Errorf("%s inside an eval response: err = %v, want a *ProtocolError", tc.name, err)
		}
		if _, err := decodeFullResp(cat(uv(1), uv(1), shipped, uv(1), tc.rec), 1, 1, true); !errors.As(err, &pe) {
			t.Errorf("%s inside a full response: err = %v, want a *ProtocolError", tc.name, err)
		}
	}
	// A shipped result is its node count, its handle's anchor and LCA
	// positions and one match depth a term; each malformed one is refused, in
	// an eval response and in a full one (a result list), each with an empty
	// record list.
	validRec := valid
	valid = cat(uv(3), uv(0), uv(1), uv(3))
	for _, tc := range []struct {
		name string
		rec  []byte
	}{
		{"valid", valid},
		{"no nodes", cat(uv(0), uv(0), uv(0), uv(1))},
		{"node count over cap", cat(uv(maxTreeNodes+1), uv(0), uv(0), uv(1))},
		{"anchor below the lca", cat(uv(3), uv(5), uv(4), uv(1))},
		{"lca past int32", cat(uv(3), uv(0), uv(math.MaxInt32+1), uv(1))},
		{"depth outside the tree", cat(uv(3), uv(0), uv(1), uv(4))},
		{"missing depth", cat(uv(3), uv(0), uv(1))},
		{"trailing bytes", cat(valid, []byte{7})},
	} {
		eval := cat(uv(1), uv(0), []byte{0, 0}, uv(1), tc.rec, uv(0))
		_, evalErr := decodeEvalResp(eval, 1, -1)
		_, fullErr := decodeFullResp(cat(uv(1), uv(1), tc.rec, uv(0)), 1, 1, false)
		var pe *ProtocolError
		for _, err := range []error{evalErr, fullErr} {
			if tc.name == "valid" {
				if err != nil {
					t.Fatalf("the valid shipped result does not scan: %v", err)
				}
			} else if !errors.As(err, &pe) {
				t.Errorf("shipped result, %s: err = %v, want a *ProtocolError", tc.name, err)
			}
		}
	}

	// Records lie where the rule puts them, or the response is refused: in an
	// eval response, one a shipped result for a shard of the request's leading
	// run and none for another shard; in a full response, one a result when
	// the request had a bound; never in a search-only answer. Each malformed
	// record is refused where a well-placed one is accepted.
	evalWith := func(shardIdx uint64, recs ...[]byte) []byte {
		return cat(uv(1), uv(shardIdx), []byte{0, 0}, uv(1), valid, uv(uint64(len(recs))), cat(recs...))
	}
	fullWith := func(recs ...[]byte) []byte { return cat(uv(1), uv(1), valid, uv(uint64(len(recs))), cat(recs...)) }
	// rooted is a response of two shards of the leading run whose second is
	// root-anchored: the query takes round two, so neither carries records.
	rooted := func(recs ...[]byte) []byte {
		return cat(uv(2), uv(0), []byte{0, 0}, uv(1), valid, uv(uint64(len(recs))), cat(recs...),
			uv(1), []byte{digestRootAnchored, 0}, uv(0), uv(0))
	}
	for _, tc := range []struct {
		name   string
		decode func() error
	}{
		{"a record count other than shipped", func() error { _, err := decodeEvalResp(evalWith(0, validRec, validRec), 1, 1); return err }},
		{"no records for a shard of the leading run", func() error { _, err := decodeEvalResp(evalWith(0), 1, 1); return err }},
		{"records outside the leading run", func() error { _, err := decodeEvalResp(evalWith(1, validRec), 1, 1); return err }},
		{"records in a search-only eval answer", func() error { _, err := decodeEvalResp(evalWith(0, validRec), 1, -1); return err }},
		{"a full record count other than its results", func() error { _, err := decodeFullResp(fullWith(validRec, validRec), 1, 1, true); return err }},
		{"no records in a snippeted full answer", func() error { _, err := decodeFullResp(fullWith(), 1, 1, true); return err }},
		{"records in a search-only full answer", func() error { _, err := decodeFullResp(fullWith(validRec), 1, 1, false); return err }},
		{"records beside a root-anchored shard", func() error { _, err := decodeEvalResp(rooted(validRec), 1, 2); return err }},
		{"a full result of a shard outside the placement", func() error { _, err := decodeFullResp(cat(uv(1), uv(2), valid, uv(0)), 1, 1, false); return err }},
		{"a whole handle not at the root", func() error {
			_, err := decodeFullResp(cat(uv(1), uv(0), uv(3), uv(1), uv(1), uv(3), uv(0)), 1, 1, false)
			return err
		}},
	} {
		var pe *ProtocolError
		if err := tc.decode(); !errors.As(err, &pe) {
			t.Errorf("%s: err = %v, want a *ProtocolError", tc.name, err)
		}
	}
	if resp, err := decodeEvalResp(evalWith(0, validRec), 1, 1); err != nil || resp.shards[0].results[0].rec != string(validRec) {
		t.Fatalf("a record of the leading run: %v", err)
	}
	if resp, err := decodeEvalResp(evalWith(1), 1, 1); err != nil || resp.shards[0].results[0].rec != "" {
		t.Fatalf("a shard outside the leading run without records: %v", err)
	}
	if resp, err := decodeEvalResp(rooted(), 1, 2); err != nil || resp.shards[0].results[0].rec != "" {
		t.Fatalf("a leading run beside a root-anchored shard without records: %v", err)
	}
	if rs, err := decodeFullResp(cat(uv(1), uv(0), cat(uv(3), uv(0), uv(1), uv(3)), uv(0)), 1, 1, false); err != nil || rs[0].at != (handle{shard: wholeShard, lca: 1}) {
		t.Fatalf("a whole handle at the root: %v", err)
	}
	if rs, err := decodeFullResp(fullWith(validRec), 1, 1, true); err != nil || rs[0].rec != string(validRec) {
		t.Fatalf("a record of a full answer: %v", err)
	}

	// Every cut of a real snippets response is refused, the cuts inside its
	// snippet records included.
	var real []byte
	for _, a := range codecAnswers(t) {
		if body := appendRecords(nil, recordsOf(a.snippets)); len(a.snippets) > 1 && len(body) > len(real) && len(body) < 8192 {
			real = body
		}
	}
	if real == nil {
		t.Fatal("no snippeted answer in the codec fixture")
	}
	for cut := 0; cut < len(real); cut++ {
		var pe *ProtocolError
		if _, err := decodeSnippetsResp(real[:cut]); !errors.As(err, &pe) {
			t.Fatalf("snippets response cut at %d of %d: err = %v", cut, len(real), err)
		}
	}
}

// chainEncoding hand-encodes a result that is one chain of depth elements
// over a text leaf.
func chainEncoding(depth int) []byte {
	b := binary.AppendUvarint(nil, uint64(depth+1))
	for i := 0; i < depth; i++ {
		b = append(b, 0, 1, 'd', 1) // element "d", one child
	}
	b = append(b, nodeKindText, 1, 'b', 0)
	return append(b, 0, 0) // no lca, no match keywords
}

// TestScanBoundsDeweyArena keeps its name from the bound it used to pin: the
// scan refused a chain deeper than 11 585 because build sized a per-node path
// arena from Σ depths (16 × maxTreeNodes ints). Nothing in build depends on
// depth any more, so a chain past that bound scans, builds to the tree the
// reference decoder produces, and decodes inside a response; the node cap is
// the only size bound left, in a trees response too.
func TestScanBoundsDeweyArena(t *testing.T) {
	const depth = 11_600
	enc := chainEncoding(depth)
	s := scanOne(t, enc)
	if s.nodes != depth+1 {
		t.Fatalf("%d-deep chain scanned as %d nodes", depth, s.nodes)
	}
	got := s.build()
	if st := got.Doc.ComputeStats(); st.Nodes != depth+1 || st.MaxDepth != depth {
		t.Fatalf("%d-deep chain built as %d nodes, depth %d", depth, st.Nodes, st.MaxDepth)
	}
	want, err := referenceResult(enc)
	if err != nil {
		t.Fatal(err)
	}
	if err := sameResult(want, got); err != nil {
		t.Fatal(err)
	}

	if _, err := decodeTreesResp(append([]byte{1}, enc...)); err != nil {
		t.Fatalf("trees response carrying the chain: %v", err)
	}
}

// Encode→scan→build is linear in nodes whatever the tree's shape: a
// 3 000-deep chain, on which per-node path labels are quadratic (4.5 M ints,
// 36 MB a built copy), costs a fixed number of bytes a node. Slabs stay in
// the allocator's small size classes if the node struct ever grows back.
func TestDeepChainAllocatesLinearly(t *testing.T) {
	if slabChunk*unsafe.Sizeof(xmltree.Node{}) > 32<<10 {
		t.Errorf("a %d-node slab is %d B, past the small size classes", slabChunk, slabChunk*unsafe.Sizeof(xmltree.Node{}))
	}
	const depth, perNode = 3000, 256
	root := xmltree.Txt("leaf")
	for i := 0; i < depth; i++ {
		root = xmltree.Elem("e", root)
	}
	doc := xmltree.NewDocument(root)
	sent := search.FromNode(doc, doc.Root)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	c := newCursor(appendResult(nil, sent))
	s := c.scanResult()
	if err := c.Done(); err != nil {
		t.Fatal(err)
	}
	got := s.build()
	runtime.ReadMemStats(&after)
	checkContract(t, sent, got)
	if n := after.TotalAlloc - before.TotalAlloc; n > perNode*uint64(doc.Len()) {
		t.Errorf("encode+scan+build allocated %d B for %d nodes, want at most %d a node", n, doc.Len(), perNode)
	}
}

// wireMessage is one valid payload of one message type with its decoder.
type wireMessage struct {
	name       string
	payload    []byte
	afterCount int // where the entry count of a count-bounded loop ends; 0 = none
	decode     func([]byte) error
}

// wireMessages builds a valid payload of every message type; the
// count-bounded ones carry n entries.
func wireMessages(tb testing.TB, n int) []wireMessage {
	uvarintLen := func(v uint64) int { return len(binary.AppendUvarint(nil, v)) }
	shards := make([]uint32, n)
	keywords := make([]string, n)
	counts := make([]uint64, n)
	for i := range shards {
		shards[i] = uint32(i)
		keywords[i] = "k"
		counts[i] = uint64(i)
	}
	var eval codecAnswer
	for _, a := range codecAnswers(tb) {
		if a.snippets != nil && len(a.shards) > len(eval.shards) {
			eval = a
		}
	}
	results, shipped := shippedOf(eval.evalAnswer)
	snippets := eval.snippets
	if len(snippets) != len(results) {
		tb.Fatalf("%d snippets for %d results", len(snippets), len(results))
	}
	// Responses open with their header; the decoders read what follows it.
	respond := func(body []byte) []byte {
		resp := appendRespHeader(nil, 5)
		putServerStages(resp, serverStages{1, 2, 3})
		return append(resp, body...)
	}
	behind := func(decode func([]byte) error) func([]byte) error {
		return func(b []byte) error {
			_, _, body, err := decodeRespHeader(b)
			if err != nil {
				return err
			}
			return decode(body)
		}
	}
	full := appendFullResp(nil, fullAnswer{terms: eval.terms, results: results, handles: shipped, records: recordsOf(snippets)})
	handles := make([]handle, n)
	for i := range handles {
		handles[i] = handle{shard: int32(i) - 1, anchor: int32(i), lca: int32(2 * i)}
	}
	trees := treesReq{opts: search.Options{Mode: search.ModeXSeek}, query: "store texas", timeoutMillis: 250, fingerprint: 7, bound: -1}
	treesAfterCount := len(encodeTreesReq(trees)) - 1 + uvarintLen(uint64(n))
	trees.handles = handles
	snippetsReq := trees
	snippetsReq.bound = 6
	req := evalReq{opts: search.Options{MaxResults: 9}, query: "store texas", timeoutMillis: 250, bound: 6}
	fullReq := encodeEvalReq(req)
	reqAfterCount := len(fullReq) - 1 + uvarintLen(uint64(n))
	req.shards = shards
	return []wireMessage{
		{"eval request", encodeEvalReq(req), reqAfterCount,
			func(b []byte) error { _, err := decodeEvalReq(b); return err }},
		{"full request", fullReq, 0,
			func(b []byte) error { _, err := decodeEvalReq(b); return err }},
		{"eval response", respond(appendEvalResp(nil, eval.evalAnswer)), 0,
			behind(func(b []byte) error { _, err := decodeEvalResp(b, len(eval.terms), len(eval.shards)); return err })},
		{"full response", respond(full), 0,
			behind(func(b []byte) error { _, err := decodeFullResp(b, len(eval.terms), len(eval.shards), true); return err })},
		{"trees request", encodeTreesReq(trees), treesAfterCount,
			func(b []byte) error { _, err := decodeTreesReq(b); return err }},
		{"trees response", respond(appendTreesResp(nil, results)), 0,
			behind(func(b []byte) error { _, err := decodeTreesResp(b); return err })},
		{"snippets request", encodeTreesReq(snippetsReq), treesAfterCount,
			func(b []byte) error { _, err := decodeTreesReq(b); return err }},
		{"snippets response", respond(appendRecords(nil, recordsOf(snippets))), 0,
			behind(func(b []byte) error { _, err := decodeSnippetsResp(b); return err })},
		{"complete request", encodeCompleteReq(completeReq{prefix: "sto", k: 10}), 0,
			func(b []byte) error { _, err := decodeCompleteReq(b); return err }},
		{"complete response", respond(appendCompleteResp(nil, keywords)), respHeaderLen + uvarintLen(uint64(n)),
			behind(func(b []byte) error { _, err := decodeCompleteResp(b); return err })},
		{"stats request", encodeStatsReq(statsReq{keywords: keywords}), uvarintLen(uint64(n)),
			func(b []byte) error { _, err := decodeStatsReq(b); return err }},
		{"stats response", respond(appendStatsResp(nil, statsResp{totalElements: 99, counts: counts})), respHeaderLen + 1 + uvarintLen(uint64(n)),
			behind(func(b []byte) error { _, err := decodeStatsResp(b); return err })},
		{"error", encodeErrMsg(errMsg{kind: errKindInternal, msg: "boom"}), 0,
			func(b []byte) error { _, err := decodeErrMsg(b); return err }},
	}
}

// TestTruncatedPayloadsClassifyCheaply cuts a valid payload of every message
// type at every length: each strict prefix must decode to a *ProtocolError.
// And a decoder must stop at its first failure: the count-bounded loops used
// to keep iterating — appending zero entries — up to the claimed count after
// the cursor had already failed, so a payload that claims thousands of
// entries and ends right there must cost a handful of allocations, not a
// slice grown entry by entry.
func TestTruncatedPayloadsClassifyCheaply(t *testing.T) {
	var pe *ProtocolError
	for _, m := range wireMessages(t, 3) {
		if err := m.decode(m.payload); err != nil {
			t.Fatalf("%s: the whole payload does not decode: %v", m.name, err)
		}
		for cut := 0; cut < len(m.payload); cut++ {
			if err := m.decode(m.payload[:cut]); !errors.As(err, &pe) {
				t.Fatalf("%s cut at %d of %d: err = %v, want a *ProtocolError", m.name, cut, len(m.payload), err)
			}
		}
	}
	const claimed = 5000
	for _, m := range wireMessages(t, claimed) {
		if m.afterCount == 0 {
			continue
		}
		cut := m.payload[:m.afterCount]
		if err := m.decode(cut); !errors.As(err, &pe) {
			t.Fatalf("%s cut after its count: err = %v, want a *ProtocolError", m.name, err)
		}
		if a := testing.AllocsPerRun(10, func() { _ = m.decode(cut) }); a > 6 {
			t.Fatalf("%s: failing right after a claimed count of %d costs %v allocations", m.name, claimed, a)
		}
	}
}

// TestSnippetRoundTrip: a snippet record decodes to the snippet that was
// encoded, in every field a served snippet keeps (sameSnippet: tree, HTML,
// edges, IList items with exact score bits, return entities, key, covered,
// skipped) — for every snippet the codec fixture's servers made, and for the
// shapes it may not: an empty IList over a lone root, one item with awkward
// score bits, and the whole document's snippet.
func TestSnippetRoundTrip(t *testing.T) {
	check := func(name string, g *core.Generated) {
		t.Helper()
		rec := appendSnippet(nil, g)
		c := newCursor(rec)
		scanned := c.scanSnippet()
		if err := c.Done(); err != nil {
			t.Fatalf("%s: scan: %v", name, err)
		}
		got := core.NewServedSnippets(1).Serve(0, unsafeString(scanned), g.Keywords, g.Bound)
		if err := sameSnippet(g, got); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
	}
	served := 0
	for _, a := range codecAnswers(t) {
		for i, g := range a.snippets {
			check(fmt.Sprintf("%v snippet %d", a.terms, i), g)
			served++
		}
	}
	if served < 20 {
		t.Fatalf("the codec fixture carries only %d snippets", served)
	}

	lone := xmltree.Elem("empty")
	check("empty IList", &core.Generated{
		Snippet: &selector.Snippet{Root: lone},
		IList:   &ilist.IList{Items: []ilist.Item{}},
		Bound:   0,
	})
	check("one item", &core.Generated{
		Snippet: &selector.Snippet{Root: xmltree.Elem("store", xmltree.Elem("city", xmltree.Txt("Houston ✓"))), Edges: 1, Covered: []int{0}},
		IList: &ilist.IList{
			Items: []ilist.Item{{
				Kind:      ilist.DominantFeature,
				Text:      "Houston ✓",
				Feature:   features.Feature{Type: features.Type{Entity: "store", Attr: "city"}, Value: "Houston ✓"},
				FeatureID: -1,
				Score:     math.Float64frombits(0x7ff8_0000_0000_0123), // a NaN payload
			}},
			ReturnEntities: []string{"store"},
			KeyAttr:        "city",
			KeyValue:       "Houston ✓",
		},
		Keywords: []string{"houston"},
		Bound:    3,
	})
	sc := shard.Build(gen.Figure1Corpus(), 1)
	only := sc.Shards()[0]
	whole := search.FromNode(only.Doc, only.Doc.Root)
	whole.Index = only.Index
	check("whole document", snippetOf(sc, whole, "texas apparel retailer", 13))
}

// snippetOf generates the served snippet of r, as a shard server does.
func snippetOf(sc *shard.Corpus, r *search.Result, query string, bound int) *core.Generated {
	gs, err := shard.Snippets(context.Background(), nil, sc.Generator(), []*search.Result{r}, index.Tokenize(query), bound)
	if err != nil {
		panic(err)
	}
	return gs[0]
}
