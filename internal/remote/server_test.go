package remote

import (
	"bytes"
	"context"
	"fmt"
	"reflect"
	"runtime"
	"slices"
	"strings"
	"sync/atomic"
	"testing"

	"extract/internal/faultinject"
	"extract/internal/search"
	"extract/internal/shard"
	"extract/xmltree"
)

// TestBadShardRefusedBeforeAnyEvaluation: a request naming an owned shard
// and then an unowned one is refused as a whole. Ownership used to be
// checked inside the dispatch loop, so the error reply left the first
// shard's evaluation running behind it; the evaluation hook here parks any
// such goroutine, which makes its existence observable.
func TestBadShardRefusedBeforeAnyEvaluation(t *testing.T) {
	srv := NewServer(versionTestCorpus(), WithOwnedShards([]uint32{0, 1}))
	release := make(chan struct{})
	var started atomic.Int32
	faultinject.Set(faultinject.ShardEval, func() error {
		started.Add(1)
		<-release
		return nil
	})
	defer faultinject.Reset()
	defer close(release)

	payload := encodeEvalReq(evalReq{opts: search.Options{DistinctAnchors: true}, query: "store", shards: []uint32{0, 2}, bound: -1})
	before := runtime.NumGoroutine()
	mt, body := srv.handle(msgEval, payload, nil)
	after := runtime.NumGoroutine()
	if mt != msgError {
		t.Fatalf("reply type %d, want an error frame", mt)
	}
	if em, err := decodeErrMsg(body); err != nil || em.kind != errKindBadShard {
		t.Fatalf("error frame = %+v, %v; want kind bad-shard", em, err)
	}
	if after != before || started.Load() != 0 {
		t.Fatalf("refused request left work behind: %d goroutines before, %d after, %d evaluations started",
			before, after, started.Load())
	}

}

// TestTrimKeepsUntrimmedEvidence: a shard server ships only the results the
// merge can still take, but the evidence the router's root decision reads —
// every digest bit, the root-anchored bit included — is computed from the
// untrimmed lists. The untrimmed side is the same request asked one shard
// at a time: a lone shard's list is already within the bound, so its trim
// has nothing to drop; and round one's own hit lists (shard.EvalShards),
// whose digests are the shipped ones, whose root-anchored bit is a hit
// anchored at the shard root, and whose cut (shard.AppendEarliest) is the
// positions of the shipped results. A root-anchored shard makes round two
// certain, so the same request with a snippet bound ships the same answer
// and no records.
func TestTrimKeepsUntrimmedEvidence(t *testing.T) {
	// In nestedParts the last shard anchors a result at the root, and the
	// earlier shards' results trim its whole list away.
	corpora := append(testCorpora(), struct {
		name string
		mk   func() *xmltree.Document
	}{"nested parts", nestedParts})

	trimmedShards, rootAnchoredTrimmed, rootAnchoredUnsnippeted := 0, 0, 0
	for _, cc := range corpora {
		sc := shard.Build(cc.mk(), 4)
		if sc.NumShards() < 2 {
			continue
		}
		srv := NewServer(sc)
		st := srv.state.Load()
		doc := cc.mk()
		queries := append(testQueries(doc), doc.Root.Label, "engine")
		for _, sem := range []search.Semantics{search.SemanticsSLCA, search.SemanticsELCA} {
			for _, maxResults := range []int{1, 2} {
				opts := search.Options{DistinctAnchors: true, Semantics: sem, MaxResults: maxResults}
				for _, q := range queries {
					got, err := srv.evaluate(st, evalReq{opts: opts, query: q, shards: st.ownedList, bound: -1})
					if err != nil {
						continue // the matrix includes the empty query
					}
					if slices.ContainsFunc(got.shards, func(s shardAnswer) bool { return s.digest.RootAnchored }) {
						bounded, err := srv.evaluate(st, evalReq{opts: opts, query: q, shards: st.ownedList, bound: 6})
						if err != nil {
							t.Fatalf("%s %q at a bound: %v", cc.name, q, err)
						}
						if bounded.records != nil || !bytes.Equal(appendEvalResp(nil, bounded), appendEvalResp(nil, got)) {
							t.Fatalf("%s %q: a root-anchored answer at a bound ships %d records, or another answer", cc.name, q, bounded.records.Len())
						}
						rootAnchoredUnsnippeted++
					}
					all := make([]int, len(st.ownedList))
					for i, idx := range st.ownedList {
						all[i] = int(idx)
					}
					parts, _, err := sc.EvalShards(context.Background(), search.Parse(q), opts, all, nil)
					if err != nil {
						t.Fatalf("%s %q: %v", cc.name, q, err)
					}
					untrimmed := make([]shardAnswer, len(got.shards))
					counts := make([]int, len(got.shards))
					for i, idx := range st.ownedList {
						alone, err := srv.evaluate(st, evalReq{opts: opts, query: q, shards: []uint32{idx}, bound: -1})
						if err != nil {
							t.Fatalf("%s %q shard %d alone: %v", cc.name, q, idx, err)
						}
						untrimmed[i] = alone.shards[0]
						counts[i] = len(untrimmed[i].results)
					}
					shard.MergeTake(counts, maxResults)
					for i, have := range got.shards {
						want := untrimmed[i]
						if have.shard != want.shard || !reflect.DeepEqual(have.digest, want.digest) {
							t.Fatalf("%s %q max %d shard %d: evidence %+v, untrimmed %+v",
								cc.name, q, maxResults, want.shard, have.digest, want.digest)
						}
						if len(have.results) != counts[i] {
							t.Fatalf("%s %q max %d shard %d ships %d results, the merge takes %d",
								cc.name, q, maxResults, have.shard, len(have.results), counts[i])
						}
						hits := parts[i].Results
						rooted := slices.ContainsFunc(hits, func(h search.Hit) bool { return h.Anchor == 0 })
						if !reflect.DeepEqual(have.digest, parts[i].Digest) || have.digest.RootAnchored != rooted {
							t.Fatalf("%s %q max %d shard %d: evidence %+v, the untrimmed hits' %+v (root-anchored %v)",
								cc.name, q, maxResults, have.shard, have.digest, parts[i].Digest, rooted)
						}
						kept := shard.AppendEarliest(nil, want.results, counts[i], func(r *search.Result) int32 { return int32(r.LCA.Ord) })
						keptHits := shard.AppendEarliest(nil, hits, counts[i], shard.HitLCA)
						for j, r := range have.results {
							h := keptHits[j]
							if r.Anchor != kept[j].Anchor || int32(r.Anchor.Ord) != h.Anchor || int32(r.LCA.Ord) != h.LCA {
								t.Fatalf("%s %q shard %d result %d is not the untrimmed list's cut", cc.name, q, have.shard, j)
							}
						}
						if len(have.results) < len(want.results) {
							trimmedShards++
							if have.digest.RootAnchored {
								rootAnchoredTrimmed++
							}
						}
					}
				}
			}
		}
	}
	if trimmedShards == 0 || rootAnchoredTrimmed == 0 || rootAnchoredUnsnippeted == 0 {
		t.Fatalf("fixture never exercised the trim: %d shard lists trimmed, %d of them root-anchored; %d root-anchored answers at a bound",
			trimmedShards, rootAnchoredTrimmed, rootAnchoredUnsnippeted)
	}
}

// TestTrimmedHitsAreNotBuilt: a shard server builds only the results it
// ships. Its four shards each hold one region of the document below; the
// first alone holds more results than the bound, so the trim ships none of
// the other shards' hits, and an eval request over all four allocates the
// same number of objects whether those shards hold one result each or ten.
func TestTrimmedHitsAreNotBuilt(t *testing.T) {
	if raceDetector {
		t.Skip("the race detector's own allocations make counts inexact")
	}
	const shops, bound = 12, 10
	region := func(matching int) string {
		var b strings.Builder
		b.WriteString("<region>")
		for i := range shops {
			tag := "none"
			if i < matching {
				tag = "item"
			}
			fmt.Fprintf(&b, "<shop><name>s%02d</name><tag>%s</tag></shop>", i, tag)
		}
		b.WriteString("</region>")
		return b.String()
	}
	var counts []float64
	for _, others := range []int{1, 10} {
		doc, err := xmltree.ParseString("<regions>" + region(shops) + strings.Repeat(region(others), 3) + "</regions>")
		if err != nil {
			t.Fatal(err)
		}
		sc := shard.Build(doc, 4)
		srv := NewServer(sc)
		st := srv.state.Load()
		req := evalReq{opts: search.Options{DistinctAnchors: true, MaxResults: bound}, query: "item", shards: st.ownedList, bound: -1}
		a, err := srv.evaluate(st, req)
		if err != nil || len(a.shards) != 4 {
			t.Fatalf("%d shard answers, %v", len(a.shards), err)
		}
		for i, sa := range a.shards {
			if want := map[bool]int{true: bound, false: 0}[i == 0]; len(sa.results) != want || !sa.digest.HasNonRootLCAs {
				t.Fatalf("shard %d ships %d results (has LCAs: %v), want %d", i, len(sa.results), sa.digest.HasNonRootLCAs, want)
			}
		}
		payload := encodeEvalReq(req)
		var enc []byte
		eval := func() {
			if mt, resp := srv.handle(msgEval, payload, enc); mt != msgEvalResp {
				t.Fatalf("eval answered with message %d", mt)
			} else {
				enc = resp[:0]
			}
		}
		eval()
		got := testing.AllocsPerRun(50, eval)
		t.Logf("%d results in each other shard: %v objects", others, got)
		counts = append(counts, got)
		srv.Close()
	}
	if counts[0] != counts[1] {
		t.Errorf("an eval request allocates %v objects when the trimmed shards hold 1 result each, %v when they hold 10", counts[0], counts[1])
	}
}
