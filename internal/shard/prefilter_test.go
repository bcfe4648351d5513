package shard

import (
	"math/rand"
	"testing"
)

// On random shardable corpora, every token a shard actually indexes must
// pass its prefilter. Tokens foreign to the whole corpus are also probed to
// exercise the miss path.
func TestPrefilterAdmitsAllIndexedTokens(t *testing.T) {
	for seed := int64(0); seed < 20; seed++ {
		doc := randomShardableDoc(rand.New(rand.NewSource(seed)))
		sc := Build(doc, 3)
		for si, s := range sc.Shards() {
			pf := s.Index.Prefilter()
			for _, kw := range s.Index.Vocabulary() {
				if !pf.MayContain(kw) {
					t.Fatalf("seed %d shard %d: prefilter rejects indexed token %q", seed, si, kw)
				}
			}
			if pf.MayContain("zzznosuchkeyword") && s.Index.List("zzznosuchkeyword").Len() == 0 {
				// A collision is legal but on tiny vocabularies it should be
				// vanishingly rare; log rather than fail so a 64-bit fluke
				// never flakes CI.
				t.Logf("seed %d shard %d: false positive on absent token", seed, si)
			}
		}
	}
}
