package ilist

import (
	"math/rand"
	"strings"
	"testing"

	"extract/internal/classify"
	"extract/internal/features"
	"extract/internal/gen"
	"extract/internal/index"
	"extract/internal/keys"
	"extract/xmltree"
)

func figure1Setup(t *testing.T) (*xmltree.Node, []string, *classify.Classification, *keys.Keys, *features.Stats) {
	t.Helper()
	corpus := gen.Figure1Corpus()
	cls := classify.Classify(corpus)
	km := keys.Mine(corpus, cls)
	result := gen.Figure1Result()
	stats := features.Collect(result.Root, cls)
	return result.Root, index.Tokenize(gen.Figure1Query), cls, km, stats
}

// TestFigure3IList pins the exact IList the paper prints in Figure 3:
// "Texas, apparel, retailer, clothes, store, Brook Brothers, Houston,
// outwear, man, casual, suit, woman".
func TestFigure3IList(t *testing.T) {
	root, kws, cls, km, stats := figure1Setup(t)
	il := Build(root, kws, cls, km, stats)

	want := []string{"texas", "apparel", "retailer", "clothes", "store",
		"Brook Brothers", "Houston", "outwear", "man", "casual", "suit", "woman"}
	got := il.Texts()
	if len(got) != len(want) {
		t.Fatalf("IList = %v (len %d), want %v", got, len(got), want)
	}
	for i := range want {
		if !strings.EqualFold(got[i], want[i]) {
			t.Fatalf("IList[%d] = %q, want %q\nfull: %v", i, got[i], want[i], got)
		}
	}
}

func TestFigure3Kinds(t *testing.T) {
	root, kws, cls, km, stats := figure1Setup(t)
	il := Build(root, kws, cls, km, stats)

	wantKinds := []Kind{Keyword, Keyword, Keyword, EntityName, EntityName,
		ResultKey, DominantFeature, DominantFeature, DominantFeature,
		DominantFeature, DominantFeature, DominantFeature}
	for i, it := range il.Items {
		if it.Kind != wantKinds[i] {
			t.Errorf("item %d (%s) kind = %v, want %v", i, it.Text, it.Kind, wantKinds[i])
		}
	}
	// Feature items carry their (e,a,v) and scores are non-increasing.
	var prev float64 = 1 << 20
	for _, it := range il.Items {
		if it.Kind == DominantFeature {
			if it.Feature.Entity == "" || it.Feature.Attr == "" {
				t.Errorf("feature item %q lacks its feature", it.Text)
			}
			if it.Score > prev {
				t.Errorf("feature scores increase at %q", it.Text)
			}
			prev = it.Score
		}
	}
}

func TestReturnEntityByName(t *testing.T) {
	root, kws, cls, km, stats := figure1Setup(t)
	il := Build(root, kws, cls, km, stats)
	if len(il.ReturnEntities) == 0 || il.ReturnEntities[0] != "retailer" {
		t.Errorf("return entities = %v, want [retailer ...]", il.ReturnEntities)
	}
	if il.KeyAttr != "name" || il.KeyValue != "Brook Brothers" {
		t.Errorf("key = %s/%s", il.KeyAttr, il.KeyValue)
	}
}

func TestReturnEntityByAttributeName(t *testing.T) {
	// Query keyword matches an attribute name ("city"), not an entity
	// name: the owning entity (store) becomes the return entity.
	corpus := gen.Figure1Corpus()
	cls := classify.Classify(corpus)
	km := keys.Mine(corpus, cls)
	result := gen.Figure1Result()
	stats := features.Collect(result.Root, cls)
	il := Build(result.Root, []string{"city", "texas"}, cls, km, stats)
	if len(il.ReturnEntities) == 0 || il.ReturnEntities[0] != "store" {
		t.Errorf("return entities = %v, want [store ...]", il.ReturnEntities)
	}
}

func TestReturnEntityDefaultHighest(t *testing.T) {
	// No keyword matches an entity or attribute name: the highest
	// entity in the result (retailer) is the default return entity.
	corpus := gen.Figure1Corpus()
	cls := classify.Classify(corpus)
	km := keys.Mine(corpus, cls)
	result := gen.Figure1Result()
	stats := features.Collect(result.Root, cls)
	il := Build(result.Root, []string{"houston", "casual"}, cls, km, stats)
	if len(il.ReturnEntities) != 1 || il.ReturnEntities[0] != "retailer" {
		t.Errorf("return entities = %v, want [retailer]", il.ReturnEntities)
	}
	if il.KeyValue != "Brook Brothers" {
		t.Errorf("key value = %q", il.KeyValue)
	}
}

func TestDedupCaseInsensitive(t *testing.T) {
	root, _, cls, km, stats := figure1Setup(t)
	// "TEXAS" the keyword dedups the (store, state, Texas) trivially
	// dominant feature; "retailer" keyword dedups the entity name.
	il := Build(root, []string{"TEXAS", "retailer"}, cls, km, stats)
	counts := map[string]int{}
	for _, it := range il.Items {
		counts[strings.ToLower(it.Text)]++
	}
	for text, c := range counts {
		if c > 1 {
			t.Errorf("%q appears %d times", text, c)
		}
	}
}

func TestEmptyResult(t *testing.T) {
	corpus := gen.Figure1Corpus()
	cls := classify.Classify(corpus)
	km := keys.Mine(corpus, cls)
	stats := features.Collect(nil, cls)
	il := Build(nil, []string{"texas"}, cls, km, stats)
	if il.Len() != 1 || il.Items[0].Kind != Keyword {
		t.Errorf("empty-result IList = %v", il.Texts())
	}
	if il.KeyValue != "" || len(il.ReturnEntities) != 0 {
		t.Errorf("unexpected key/returns: %+v", il)
	}
}

func TestString(t *testing.T) {
	root, kws, cls, km, stats := figure1Setup(t)
	il := Build(root, kws, cls, km, stats)
	s := il.String()
	if !strings.Contains(s, "Brook Brothers, Houston") {
		t.Errorf("String() = %q", s)
	}
}

// TestAdmitMatchesToLower: the pooled scratch Build dedupes with admits a text
// exactly when the map of strings.ToLower(strings.TrimSpace(text)) it
// replaced would have — over random texts of ASCII of both cases, space,
// runes whose case mappings are not one-to-one (the Kelvin sign, long s,
// dotted and dotless i, final sigma) and invalid UTF-8 — and allocates
// nothing for a list once the pool holds a scratch.
func TestAdmitMatchesToLower(t *testing.T) {
	alphabet := []string{"a", "A", "s", "S", "k", "K", " ", "K", "ſ", "İ", "ı", "i", "I", "ς", "σ", "Σ", "\xff", "\xfe", "�", "é", "É"}
	r := rand.New(rand.NewSource(1))
	for round := 0; round < 2000; round++ {
		sc := scratches.Get().(*scratch)
		want := map[string]bool{}
		for k := 0; k < 12; k++ {
			var b strings.Builder
			for n := r.Intn(4); n >= 0; n-- {
				b.WriteString(alphabet[r.Intn(len(alphabet))])
			}
			text := strings.TrimSpace(b.String())
			key := strings.ToLower(text)
			wantAdmit := key != "" && !want[key]
			if wantAdmit {
				want[key] = true
			}
			if got := sc.admit(text); got != wantAdmit {
				t.Fatalf("admit(%q) = %v, want %v (admitted %q)", text, got, wantAdmit, sc.keys)
			}
		}
		sc.release()
	}
	if raceDetector {
		return // sync.Pool drops entries at random under the detector
	}
	texts := []string{"Texas", "apparel", "TEXAS", "Brook Brothers", "brook brothers", "Houston", "houston "}
	if n := testing.AllocsPerRun(100, func() {
		sc := scratches.Get().(*scratch)
		for _, text := range texts {
			sc.admit(strings.TrimSpace(text))
		}
		sc.release()
	}); n != 0 {
		t.Errorf("deduplicating a list allocates %v objects", n)
	}
}
