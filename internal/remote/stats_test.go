package remote

import (
	"context"
	"fmt"
	"testing"
)

// TestStatsCacheStaysBounded: a generation's cache of document frequencies
// holds at most maxCachedStats keywords however many distinct ones ranked
// queries ask for, and the scores stay the local corpus's: a keyword the
// bound cleared out is fetched again, never counted as zero.
func TestStatsCacheStaysBounded(t *testing.T) {
	sc := versionTestCorpus()
	rt := startCluster(t, sc, 2, 1).router
	ctx := context.Background()
	local, _ := sc.Scorer(ctx, nil)
	vocab := unshardedOf(versionTestDoc()).Index.Vocabulary()
	keys := append([]string(nil), vocab...)
	for i := 0; len(keys) <= 2*maxCachedStats; i++ {
		keys = append(keys, fmt.Sprintf("absent%05d", i))
	}
	cached := func() int {
		pl := rt.place.Load()
		pl.stats.Lock()
		defer pl.stats.Unlock()
		return len(pl.stats.df)
	}
	check := func(keys []string) {
		t.Helper()
		scorer, err := rt.Scorer(ctx, keys)
		if err != nil {
			t.Fatalf("Scorer: %v", err)
		}
		for _, k := range keys {
			if got, want := scorer.IDF(k), local.IDF(k); got != want {
				t.Fatalf("IDF(%q) = %v, local %v", k, got, want)
			}
		}
		if n := cached(); n > maxCachedStats {
			t.Fatalf("%d cached keywords, bound %d", n, maxCachedStats)
		}
	}
	const batch = 500
	for start := 0; start < len(keys); start += batch {
		check(keys[start:min(start+batch, len(keys))])
	}
	calls := callsOf(rt, "stats")["any"]
	check(vocab)
	if n := callsOf(rt, "stats")["any"] - calls; n != 1 {
		t.Fatalf("asking for cleared keywords again made %d stats calls, want 1", n)
	}
	check(vocab)
	if n := callsOf(rt, "stats")["any"] - calls; n != 1 {
		t.Fatalf("asking for cached keywords made %d more stats calls", n-1)
	}
}
