package remote

import (
	"bytes"
	"reflect"
	"runtime"
	"slices"
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
// has nothing to drop. A root-anchored shard makes round two certain, so the
// same request with a snippet bound ships the same answer and no records.
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
						kept := shard.AppendEarliest(nil, want.results, counts[i], shard.LCAOf)
						for j, r := range have.results {
							if r.Anchor != kept[j].Anchor {
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
