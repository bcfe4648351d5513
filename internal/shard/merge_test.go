package shard

import (
	"context"
	"errors"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"extract/internal/search"
	"extract/xmltree"
)

// TestMergeTakeIsConcatenateAndTruncate pins the cut against the literal
// statement of the merge — lay every shard's results end to end in shard
// order, each shard's in LCA order, keep the first maxResults (0 = all) —
// on random count vectors and bounds, and MergeResults against the same
// literal merge, each shard's kept results back in its own (anchor) order.
// A shard's LCAs are a random permutation of its positions, so the anchor
// order a shard lists its results in is rarely its LCA order.
func TestMergeTakeIsConcatenateAndTruncate(t *testing.T) {
	type result struct{ shard, lca int32 }
	lcaOf := func(r *result) int32 { return r.lca }
	prop := func(raw []uint8, bound uint8, seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		counts := make([]int, len(raw))
		byShard := make([][]*result, len(raw))
		var all []*result // the concatenation, each shard's in LCA order
		for i, c := range raw {
			counts[i] = int(c % 7)
			for _, l := range rng.Perm(counts[i]) {
				byShard[i] = append(byShard[i], &result{shard: int32(i), lca: int32(l)})
			}
			for l := range counts[i] {
				all = append(all, byShard[i][slices.IndexFunc(byShard[i], func(r *result) bool { return r.lca == int32(l) })])
			}
		}
		maxResults := int(bound % 12)
		if maxResults > 0 && len(all) > maxResults {
			all = all[:maxResults]
		}
		want := make([]int, len(raw))
		for _, r := range all {
			want[r.shard]++
		}

		take := append([]int(nil), counts...)
		total := MergeTake(take, maxResults)
		if total != len(all) || !slices.Equal(take, want) {
			t.Logf("counts %v bound %d: take %v total %d, want %v total %d", counts, maxResults, take, total, want, len(all))
			return false
		}
		merged := MergeResults(byShard, maxResults, lcaOf)
		if len(merged) != len(all) {
			return false
		}
		kept := map[*result]bool{}
		for _, r := range all {
			kept[r] = true
		}
		var inOrder []*result
		for _, rs := range byShard {
			for _, r := range rs {
				if kept[r] {
					inOrder = append(inOrder, r)
				}
			}
		}
		return slices.Equal(merged, inOrder)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

// TestLeadingRunCutIsTheGlobalCut: the rule a shard server snippets by — the
// cut over a leading run of shards is the global cut restricted to them — on
// random count vectors, bounds and run lengths; and LeadingRun measures the
// run of a shard list, stopping at the first shard out of place.
func TestLeadingRunCutIsTheGlobalCut(t *testing.T) {
	prop := func(raw []uint8, bound uint8, cut uint8) bool {
		counts := make([]int, len(raw))
		for i, c := range raw {
			counts[i] = int(c % 9)
		}
		maxResults := int(bound % 20)
		global := slices.Clone(counts)
		MergeTake(global, maxResults)
		p := int(cut) % (len(counts) + 1)
		lead := slices.Clone(counts[:p])
		MergeTake(lead, maxResults)
		if !slices.Equal(lead, global[:p]) {
			t.Logf("counts %v bound %d run %d: %v, global %v", counts, maxResults, p, lead, global)
			return false
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		shards []uint32
		want   int
	}{
		{nil, 0},
		{[]uint32{1, 2}, 0},
		{[]uint32{0}, 1},
		{[]uint32{0, 1, 3}, 2},
		{[]uint32{0, 2, 3}, 1},
		{[]uint32{0, 1, 2, 3}, 4},
		{[]uint32{0, 0, 1}, 1},
	} {
		if got := LeadingRun(tc.shards); got != tc.want {
			t.Errorf("LeadingRun(%v) = %d, want %d", tc.shards, got, tc.want)
		}
	}
}

// TestMergeResultsAllocatesOnlyTheMergedSlice: writing the merge over the
// shared cut did not add an allocation to the local query path, the shard
// the cut falls in included.
func TestMergeResultsAllocatesOnlyTheMergedSlice(t *testing.T) {
	byShard := make([][]*search.Result, 4)
	for i := range byShard {
		byShard[i] = make([]*search.Result, 10)
		for j := range byShard[i] {
			byShard[i][j] = &search.Result{LCA: &xmltree.Node{Ord: 10 - j}}
		}
	}
	for _, maxResults := range []int{0, 25} {
		if a := testing.AllocsPerRun(100, func() { MergeResults(byShard, maxResults, LCAOf) }); a != 1 {
			t.Fatalf("MergeResults(max %d) allocates %v times, want 1", maxResults, a)
		}
	}
}

// intLCA is countingRounds' LCA position: its results are their own.
func intLCA(r int) int32 { return int32(r) }

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
		got, err := Merge(context.Background(), search.Options{Semantics: tc.sem, MaxResults: tc.max}, r, intLCA)
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
	if _, err := Merge(ctx, search.Options{}, r, intLCA); !errors.Is(err, context.Canceled) || r.wholes != 0 {
		t.Errorf("cancelled after round one: err %v, %d Whole; want context.Canceled, 0", err, r.wholes)
	}
	boom := errors.New("round one failed")
	r = &countingRounds{parts: []Partial[int]{miss(second), miss(first)}, evalErr: boom}
	if _, err := Merge(context.Background(), search.Options{Semantics: elca}, r, intLCA); err != boom || r.wholes != 0 {
		t.Errorf("failed round one: err %v, %d Whole; want %v, 0", err, r.wholes, boom)
	}
}
