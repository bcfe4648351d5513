package shard

import (
	"slices"
	"testing"
	"testing/quick"

	"extract/internal/search"
)

// TestMergeTakeIsConcatenateAndTruncate pins the cut against the literal
// statement of the merge — lay every shard's results end to end in shard
// order, keep the first maxResults (0 = all) — on random count vectors and
// bounds, and MergeResults against the same literal merge.
func TestMergeTakeIsConcatenateAndTruncate(t *testing.T) {
	prop := func(raw []uint8, bound uint8) bool {
		counts := make([]int, len(raw))
		byShard := make([][]*search.Result, len(raw))
		var owner []int // owner[k] = shard of the k-th result of the concatenation
		var all []*search.Result
		for i, c := range raw {
			counts[i] = int(c % 7)
			for j := 0; j < counts[i]; j++ {
				r := &search.Result{}
				byShard[i] = append(byShard[i], r)
				all = append(all, r)
				owner = append(owner, i)
			}
		}
		maxResults := int(bound % 12)
		if maxResults > 0 && len(all) > maxResults {
			all, owner = all[:maxResults], owner[:maxResults]
		}
		want := make([]int, len(raw))
		for _, s := range owner {
			want[s]++
		}

		take := append([]int(nil), counts...)
		total := MergeTake(take, maxResults)
		if total != len(all) || !slices.Equal(take, want) {
			t.Logf("counts %v bound %d: take %v total %d, want %v total %d", counts, maxResults, take, total, want, len(all))
			return false
		}
		merged := MergeResults(byShard, maxResults)
		if len(merged) != len(all) {
			return false
		}
		for k := range merged {
			if merged[k] != all[k] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

// TestMergeResultsAllocatesOnlyTheMergedSlice: writing the merge over the
// shared cut did not add an allocation to the local query path.
func TestMergeResultsAllocatesOnlyTheMergedSlice(t *testing.T) {
	byShard := make([][]*search.Result, 4)
	for i := range byShard {
		byShard[i] = make([]*search.Result, 10)
	}
	for _, maxResults := range []int{0, 25} {
		if a := testing.AllocsPerRun(100, func() { MergeResults(byShard, maxResults) }); a != 1 {
			t.Fatalf("MergeResults(max %d) allocates %v times, want 1", maxResults, a)
		}
	}
}
