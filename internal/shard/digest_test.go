package shard

import (
	"context"
	"fmt"
	"math/rand"
	"testing"

	"extract/internal/index"
	"extract/internal/search"
	"extract/xmltree"
)

// outermostIntervals collapses a document-ordered node list to the preorder
// intervals of its outermost members (nested nodes are absorbed by their
// containing ancestor).
func outermostIntervals(nodes []*xmltree.Node) [][2]int32 {
	var out [][2]int32
	lastEnd := int32(-1)
	for _, n := range nodes {
		if n.Start > lastEnd {
			out = append(out, [2]int32{n.Start, n.End})
			lastEnd = n.End
		}
	}
	return out
}

// hasFreeOrd reports whether the list has an entry outside every blocked
// interval (both sides sorted; one linear merge scan) — how the free bits
// were computed before the ELCA pass left them behind, kept as their oracle.
func hasFreeOrd(l *index.PostingList, blocked [][2]int32) bool {
	bi := 0
	for _, o := range l.Ords {
		for bi < len(blocked) && blocked[bi][1] < o {
			bi++
		}
		if bi >= len(blocked) || o < blocked[bi][0] {
			return true
		}
	}
	return false
}

// Property: for random documents and shard cuts, every shard's round-one
// Digest.Free is the brute-force "a match outside every outermost non-root
// ELCABaseline node", whether or not the shard holds every query keyword.
func TestDigestFreeMatchesBruteForce(t *testing.T) {
	ctx, opts := context.Background(), search.Options{Semantics: search.SemanticsELCA, DistinctAnchors: true}
	for seed := int64(0); seed < 40; seed++ {
		for _, n := range []int{2, 3, 5} {
			sc := Build(randomShardableDoc(rand.New(rand.NewSource(seed))), n)
			voc := sc.Shards()[0].Index.Vocabulary()
			var queries []string
			for i, kw := range voc {
				queries = append(queries, kw, kw+" "+voc[(i+1)%len(voc)], kw+" root "+voc[(i+2)%len(voc)])
			}
			all := make([]int, len(sc.Shards()))
			for i := range all {
				all[i] = i
			}
			for _, q := range queries {
				parts, _, err := sc.EvalShards(ctx, search.Parse(q), opts, all, nil)
				if err != nil {
					t.Fatal(err)
				}
				digests := make([]Digest, len(parts))
				for i, p := range parts {
					digests[i] = p.Digest
				}
				for i, s := range sc.Shards() {
					var packed []*index.PostingList
					var lists [][]*xmltree.Node
					for _, term := range search.ParseQuery(q) {
						l := s.Index.List(term.String())
						if l == nil {
							l = &index.PostingList{}
						}
						packed, lists = append(packed, l), append(lists, l.Nodes)
					}
					var nonRoot []*xmltree.Node
					for _, e := range search.ELCABaseline(lists...) {
						if e != s.Doc.Root {
							nonRoot = append(nonRoot, e)
						}
					}
					want := make([]bool, len(packed))
					for j, l := range packed {
						want[j] = hasFreeOrd(l, outermostIntervals(nonRoot))
					}
					label := fmt.Sprintf("seed %d n=%d shard %d %q", seed, n, i, q)
					if got := digests[i].Free; fmt.Sprint(got) != fmt.Sprint(want) {
						t.Fatalf("%s: digest round free = %v, brute force %v", label, got, want)
					}
					if got := parts[i].Digest.Free; fmt.Sprint(got) != fmt.Sprint(want) {
						t.Fatalf("%s: eval round free = %v, brute force %v", label, got, want)
					}
					if got, wantNonRoot := digests[i].HasNonRootLCAs, len(nonRoot) > 0; got != wantNonRoot {
						t.Fatalf("%s: HasNonRootLCAs = %v, want %v", label, got, wantNonRoot)
					}
				}
			}
		}
	}
}
