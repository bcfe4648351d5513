package shard

import (
	"context"
	"errors"
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

// countingRounds is a scripted Rounds that records how Merge drove it.
type countingRounds struct {
	parts    []Partial[int]
	whole    []int
	evalErr  error
	afterOne func() // runs at the end of round one

	evals, wholes int
}

func (r *countingRounds) Eval(context.Context) ([]Partial[int], error) {
	r.evals++
	if r.afterOne != nil {
		defer r.afterOne()
	}
	return r.parts, r.evalErr
}

func (r *countingRounds) Whole(context.Context, []Partial[int], bool) ([]int, error) {
	r.wholes++
	return r.whole, nil
}

// TestMergeRunsEachRoundOnlyWhenNeeded pins the protocol's round counts —
// the property suites pin only its answers. Round one runs once, on every
// shard; round two runs once, and only for a root-involving query;
// everything else is MergeResults' cut of round one.
func TestMergeRunsEachRoundOnlyWhenNeeded(t *testing.T) {
	const k = 2 // keywords
	both, first, second := []bool{true, true}, []bool{true, false}, []bool{false, true}
	hit := func(results ...int) Partial[int] { // a shard with a non-root LCA
		return Partial[int]{Digest: Digest{Matched: both, Free: make([]bool, k), HasNonRootLCAs: true}, Results: results}
	}
	miss := func(matched []bool) Partial[int] { // no LCA, these keywords present and free
		return Partial[int]{Digest: Digest{Matched: matched, Free: matched}}
	}
	rootAnchored := hit(7)
	rootAnchored.Digest.RootAnchored = true
	whole := []int{100, 101}

	slca, elca := search.SemanticsSLCA, search.SemanticsELCA
	cases := []struct {
		name      string
		sem       search.Semantics
		max       int
		parts     []Partial[int]
		wantWhole bool
		want      []int // when !wantWhole
	}{
		{name: "slca with a non-root lca never leaves round one", sem: slca,
			parts: []Partial[int]{miss(first), hit(1, 2), miss(second), hit(3)},
			want:  []int{1, 2, 3}},
		{name: "elca root without a free witness of every keyword", sem: elca,
			parts: []Partial[int]{miss(first), hit(1, 2), miss(first), hit(3)},
			want:  []int{1, 2, 3}},
		{name: "elca with every shard a hit", sem: elca,
			parts: []Partial[int]{hit(1), hit(2)},
			want:  []int{1, 2}},
		{name: "elca root with free witnesses in shards missing a keyword", sem: elca,
			parts:     []Partial[int]{hit(1), miss(first), miss(second)},
			wantWhole: true},
		{name: "slca without any lca; root qualifies", sem: slca,
			parts:     []Partial[int]{miss(first), miss(second), miss(first)},
			wantWhole: true},
		{name: "slca without any lca, a keyword matching nowhere", sem: slca,
			parts: []Partial[int]{miss(first), miss(first)}},
		{name: "root-anchored partial goes whole", sem: slca,
			parts:     []Partial[int]{miss(first), rootAnchored, hit(1)},
			wantWhole: true},
		{name: "cut at max 0", sem: slca, max: 0,
			parts: []Partial[int]{hit(1, 2), miss(first), hit(3), hit(4, 5, 6)},
			want:  []int{1, 2, 3, 4, 5, 6}},
		{name: "cut at max 1", sem: slca, max: 1,
			parts: []Partial[int]{hit(1, 2), miss(first), hit(3), hit(4, 5, 6)},
			want:  []int{1}},
		{name: "cut at max 4", sem: slca, max: 4,
			parts: []Partial[int]{hit(1, 2), miss(first), hit(3), hit(4, 5, 6)},
			want:  []int{1, 2, 3, 4}},
	}
	for _, tc := range cases {
		r := &countingRounds{parts: tc.parts, whole: whole}
		got, err := Merge(context.Background(), search.Options{Semantics: tc.sem, MaxResults: tc.max}, r)
		if err != nil {
			t.Errorf("%s: %v", tc.name, err)
			continue
		}
		wantWholes, want := 0, tc.want
		if tc.wantWhole {
			wantWholes, want = 1, whole
		}
		if r.evals != 1 || r.wholes != wantWholes {
			t.Errorf("%s: %d Eval, %d Whole; want 1, %d", tc.name, r.evals, r.wholes, wantWholes)
		}
		if !slices.Equal(got, want) {
			t.Errorf("%s: merged %v, want %v", tc.name, got, want)
		}
	}

	// A query cancelled once round one is in does not pay for the whole
	// document; a failed round one ends the query there.
	ctx, cancel := context.WithCancel(context.Background())
	r := &countingRounds{parts: []Partial[int]{rootAnchored, hit(1)}, whole: whole, afterOne: cancel}
	if _, err := Merge(ctx, search.Options{}, r); !errors.Is(err, context.Canceled) || r.wholes != 0 {
		t.Errorf("cancelled after round one: err %v, %d Whole; want context.Canceled, 0", err, r.wholes)
	}
	boom := errors.New("round one failed")
	r = &countingRounds{parts: []Partial[int]{miss(second), miss(first)}, evalErr: boom}
	if _, err := Merge(context.Background(), search.Options{Semantics: elca}, r); err != boom || r.wholes != 0 {
		t.Errorf("failed round one: err %v, %d Whole; want %v, 0", err, r.wholes, boom)
	}
}
