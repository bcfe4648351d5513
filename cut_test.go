package extract

import (
	"context"
	"fmt"
	"strings"
	"testing"
)

// TestRoundOneCutTakesEarliestLCAs: when the result bound cuts into a shard's
// results, the merge keeps the ones the whole engine keeps — the first
// MaxResults distinct anchors in LCA order — not the first in anchor order.
// In the document below the third <a> (an entity above the LCA <d>) anchors a
// result that sorts before the inner <a>a</a>, whose LCA comes first; the
// unsharded engine keeps <a>a</a>, and so must three shards, local and
// routed, at every bound.
func TestRoundOneCutTakesEarliestLCAs(t *testing.T) {
	const xml = `<r><a/><a><a>a</a><d>a</d></a><a><a/></a></r>`
	ctx := context.Background()
	whole, err := LoadString(xml, WithQueryCache(0))
	if err != nil {
		t.Fatal(err)
	}
	defer whole.Close()
	local, err := LoadString(xml, WithShards(3), WithQueryCache(0))
	if err != nil {
		t.Fatal(err)
	}
	defer local.Close()
	dir := t.TempDir()
	if err := local.SaveSnapshot(dir); err != nil {
		t.Fatal(err)
	}
	addrs, _ := startShardTier(t, dir, 2, 1)
	routed, err := Connect(dir, addrs, WithQueryCache(0))
	if err != nil {
		t.Fatal(err)
	}
	defer routed.Close()

	want, err := whole.QueryContext(ctx, "a a", 4, WithMaxResults(2))
	if err != nil {
		t.Fatal(err)
	}
	if len(want) != 2 || strings.Join(strings.Fields(must(want[1].Result.XML())), "") != "<a>a</a>" {
		t.Fatalf("unsharded hits: %d, want 2 with <a>a</a> second", len(want))
	}
	for _, max := range []int{1, 2, 3, 0} {
		for _, ranked := range []bool{false, true} {
			opts := []SearchOption{WithMaxResults(max)}
			if ranked {
				opts = append(opts, WithRanking())
			}
			want, err := whole.QueryContext(ctx, "a a", 4, opts...)
			if err != nil {
				t.Fatal(err)
			}
			for side, c := range map[string]*Corpus{"local": local, "routed": routed} {
				got, err := c.QueryContext(ctx, "a a", 4, opts...)
				if err != nil {
					t.Fatalf("%s max %d: %v", side, max, err)
				}
				sameHits(t, fmt.Sprintf("%s max %d ranked %v", side, max, ranked), want, got)
			}
		}
	}
}
