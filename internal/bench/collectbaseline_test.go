package bench

import (
	"slices"
	"testing"

	"extract/internal/classify"
	"extract/internal/features"
)

// The frozen collector and features.Collect must gather the same statistics
// — same features in the same order, same counts, same instances, same
// entities — or collect_before_ns and collect_after_ns time different work.
func TestCollectBaselineMatchesCollect(t *testing.T) {
	for _, size := range []int{100, 2_000} {
		result := resultOfSize(size)
		cls := classify.Classify(storesCorpusOfSize(size, 1))
		want := collectBaseline(result.Root, cls)
		got := features.Collect(result.Root, cls)
		if len(want.order) == 0 || !slices.Equal(got.Features(), want.order) {
			t.Fatalf("size %d: features %v, baseline %v", size, got.Features(), want.order)
		}
		for _, f := range want.order {
			if got.N(f) != want.n[f] || got.TypeN(f.Type) != want.typeN[f.Type] || got.TypeD(f.Type) != want.typeD[f.Type] {
				t.Fatalf("size %d: %v: N %d N(e,a) %d D(e,a) %d, baseline %d %d %d", size, f,
					got.N(f), got.TypeN(f.Type), got.TypeD(f.Type), want.n[f], want.typeN[f.Type], want.typeD[f.Type])
			}
			if !slices.Equal(got.Instances(f), want.instances[f]) {
				t.Fatalf("size %d: instances of %v differ", size, f)
			}
		}
		if !slices.Equal(got.EntityLabels(), want.entityLabels) {
			t.Fatalf("size %d: entity labels %v, baseline %v", size, got.EntityLabels(), want.entityLabels)
		}
		for _, l := range want.entityLabels {
			if got.FirstEntity(l) != want.firstEntity[l] {
				t.Fatalf("size %d: first %q instance differs", size, l)
			}
		}
	}
}
