package search

import (
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"

	"extract/internal/index"
	"extract/xmltree"
)

// FuzzGallop pins gallop against the obvious linear reference: the smallest
// index at or after the cursor whose ord reaches the target. The fuzzer
// builds arbitrary non-decreasing arrays (duplicates included — packed
// posting ords are strictly increasing, but the helper must not depend on
// that) and arbitrary cursor/target combinations, including cursors already
// past the target and targets beyond the last element.
func FuzzGallop(f *testing.F) {
	f.Add([]byte{1, 2, 3, 4}, uint16(0), int32(5))
	f.Add([]byte{0, 0, 7, 255}, uint16(2), int32(200))
	f.Add([]byte{}, uint16(9), int32(-3))
	f.Add([]byte{10, 0, 0, 0, 1}, uint16(1), int32(10))
	f.Fuzz(func(t *testing.T, deltas []byte, from16 uint16, target int32) {
		ords := make([]int32, len(deltas))
		var cur int32
		for i, d := range deltas {
			cur += int32(d)
			ords[i] = cur
		}
		from := int(from16) % (len(ords) + 1)
		got := gallop(ords, from, target)
		want := from
		for want < len(ords) && ords[want] < target {
			want++
		}
		if got != want {
			t.Fatalf("gallop(%v, %d, %d) = %d, want %d", ords, from, target, got, want)
		}
	})
}

// Property: the bounded SLCA scan returns exactly the first limit elements
// of the unbounded SLCA set (or the whole set, unmarked, when it fits), for
// every limit, on random trees and keyword lists — early termination may
// only cut work, never change answers.
func TestSLCABoundedPrefixProperty(t *testing.T) {
	check := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		doc := randomDoc(r, seed%2 == 0)
		ix := index.Build(doc)
		voc := ix.Vocabulary()
		if len(voc) == 0 {
			return true
		}
		k := 1 + r.Intn(4)
		packed := make([]*index.PostingList, k)
		for i := 0; i < k; i++ {
			packed[i] = ix.List(voc[r.Intn(len(voc))])
		}
		full := SLCAPacked(ix, packed...)
		for limit := 1; limit <= len(full)+1; limit++ {
			got, truncated := SLCAPackedBounded(ix, limit, packed...)
			wantLen := len(full)
			if limit < wantLen {
				wantLen = limit
			}
			if len(got) != wantLen || truncated != (limit < len(full)) {
				t.Logf("seed %d limit %d: got %d nodes (truncated=%v), full set has %d",
					seed, limit, len(got), truncated, len(full))
				return false
			}
			for i := range got {
				if got[i] != full[i] {
					t.Logf("seed %d limit %d: element %d differs: %s vs %s",
						seed, limit, i, got[i].Label, full[i].Label)
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// FuzzSLCA holds the bounded column SLCA to SLCABrute on fuzzed tree shapes,
// per-list membership and limits: the result must be the same-length prefix
// of the brute-force set, and Truncated must say exactly whether the set
// has more. Trees are built as in FuzzELCA, and a shape byte with the high
// bit set also gives its element a text child, so the element columns skip
// positions; a member byte puts node i into list j once (bit j) or twice
// (bit j+4). limit 0 is unbounded.
func FuzzSLCA(f *testing.F) {
	f.Add([]byte{0, 0, 1, 1, 2, 5}, []byte{1, 2, 3, 0x11, 2, 1, 3}, uint8(1), uint8(1))
	f.Add([]byte{1, 0x81, 1, 1, 0x81, 1, 1, 1}, []byte{0xff}, uint8(3), uint8(0))
	f.Add([]byte{0, 2, 4, 6, 8, 10, 0x80, 0x82}, []byte{1, 0, 0, 0, 0, 2, 2, 3}, uint8(2), uint8(2))
	f.Add([]byte{}, []byte{7}, uint8(0), uint8(5))
	f.Fuzz(func(t *testing.T, shape, member []byte, k8, limit8 uint8) {
		if len(shape) > 300 || len(member) == 0 {
			return
		}
		nodes := []*xmltree.Node{xmltree.Elem("n")}
		for _, b := range shape {
			at := int(b&0x7f/2) % len(nodes)
			if b%2 == 1 {
				at = len(nodes) - 1 - at
			}
			child := xmltree.Elem("n")
			if b&0x80 != 0 {
				xmltree.Append(child, xmltree.Txt("t"))
			}
			xmltree.Append(nodes[at], child)
			nodes = append(nodes, child)
		}
		doc := xmltree.NewDocument(nodes[0])
		lists := make([][]*xmltree.Node, 1+k8%4)
		i := 0
		for _, n := range doc.Nodes() {
			if !n.IsElement() {
				continue
			}
			m := member[i%len(member)]
			i++
			for j := range lists {
				for c := m>>j&1 + m>>(j+4)&1; c > 0; c-- {
					lists[j] = append(lists[j], n)
				}
			}
		}
		limit := int(limit8 % 8)
		got, truncated := SLCAPackedBounded(index.FromParts(doc, nil), limit, packLists(lists)...)
		full := SLCABrute(doc, lists...)
		want := full
		if limit > 0 && limit < len(full) {
			want = full[:limit]
		}
		if !sameNodes(got, want) || truncated != (len(want) < len(full)) {
			t.Fatalf("limit %d: slca %v (truncated %v), brute %v", limit, labels(got), truncated, labels(full))
		}
	})
}

// BenchmarkSLCAProbeModes races the two cursor-advance strategies of
// SLCAPackedBounded on a packed ord array at controlled probe gaps. This is
// the measurement behind the gallopCost constant: at average gap g a linear
// advance visits ~g elements per probe while a gallop spends
// ~gallopCost*(log2(g)+1) visit-equivalents, so the gap where the two
// curves cross pins gallopCost (see PERFORMANCE.md, "The galloping
// crossover").
func BenchmarkSLCAProbeModes(b *testing.B) {
	const n = 1 << 20
	ords := make([]int32, n)
	for i := range ords {
		ords[i] = int32(2 * i)
	}
	for _, gap := range []int{2, 4, 8, 16, 32, 64, 256, 1024} {
		r := rand.New(rand.NewSource(42))
		var targets []int32
		for pos := r.Intn(gap + 1); pos < n; pos += 1 + r.Intn(2*gap) {
			targets = append(targets, ords[pos]+1)
		}
		probe := func(b *testing.B, advance func(cur int, tg int32) int) {
			b.Helper()
			b.ReportMetric(float64(len(targets)), "probes/op")
			for i := 0; i < b.N; i++ {
				cur := 0
				for _, tg := range targets {
					cur = advance(cur, tg)
				}
				benchSink = cur
			}
		}
		b.Run(fmt.Sprintf("gap=%d/linear", gap), func(b *testing.B) {
			probe(b, func(cur int, tg int32) int {
				for cur < len(ords) && ords[cur] < tg {
					cur++
				}
				return cur
			})
		})
		b.Run(fmt.Sprintf("gap=%d/gallop", gap), func(b *testing.B) {
			probe(b, func(cur int, tg int32) int {
				return gallop(ords, cur, tg)
			})
		})
	}
}

var benchSink int

// BenchmarkELCAListShapes times ELCAPacked on the list shapes its cost model
// distinguishes (PERFORMANCE.md, "The ELCA cost model"): 20 000 entities
// under one root, every one holding an a, b, c and y, every 10th an x, every
// 200th a z. With equal lists every entity is an ELCA and every entry a
// candidate — the shape where driving from the shortest list saves nothing;
// the skewed shapes decide only the entities holding the rare keyword.
func BenchmarkELCAListShapes(b *testing.B) {
	root := xmltree.Elem("r")
	for i := 0; i < 20000; i++ {
		e := xmltree.Elem("e")
		for _, tag := range []string{"a", "b", "c", "y"} {
			xmltree.Append(e, xmltree.Elem(tag))
		}
		if i%10 == 0 {
			xmltree.Append(e, xmltree.Elem("x"))
		}
		if i%200 == 0 {
			xmltree.Append(e, xmltree.Elem("z"))
		}
		xmltree.Append(root, e)
	}
	ix := index.Build(xmltree.NewDocument(root))
	for _, shape := range []struct {
		name string
		tags []string
	}{
		{"equal-all-qualify", []string{"a", "b", "c"}},
		{"skew-1:10", []string{"x", "y"}},
		{"skew-1:200", []string{"z", "y"}},
		{"one-keyword", []string{"y"}},
		{"four-keywords", []string{"a", "b", "c", "y"}},
	} {
		lists := make([]*index.PostingList, len(shape.tags))
		for i, tag := range shape.tags {
			lists[i] = ix.List(tag)
		}
		b.Run(shape.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				ELCAPacked(ix, lists...)
			}
		})
	}
}
