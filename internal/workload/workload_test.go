package workload

import (
	"testing"

	"extract/internal/gen"
	"extract/internal/search"
)

func TestGenerateProducesAnswerableQueries(t *testing.T) {
	doc := gen.Stores(gen.StoresConfig{Retailers: 3, StoresPerRetailer: 3, ClothesPerStore: 5, Seed: 11})
	qs := Generate(doc, Config{Queries: 8, Keywords: 3, Seed: 11})
	if len(qs) != 8 {
		t.Fatalf("queries = %d", len(qs))
	}
	eng := search.NewEngine(doc, nil, nil, search.Options{})
	for _, q := range qs {
		if len(q.Keywords) != 3 {
			t.Errorf("keywords = %v", q.Keywords)
		}
		results, err := eng.Search(search.Parse(q.Text()))
		if err != nil {
			t.Fatalf("search %q: %v", q.Text(), err)
		}
		if len(results) == 0 {
			t.Errorf("query %q has no results", q.Text())
		}
	}
}

func TestGenerateDeterministic(t *testing.T) {
	doc := gen.Movies(gen.MoviesConfig{Movies: 10, Seed: 2})
	a := Generate(doc, Config{Queries: 5, Seed: 9})
	b := Generate(doc, Config{Queries: 5, Seed: 9})
	if len(a) != len(b) {
		t.Fatal("nondeterministic count")
	}
	for i := range a {
		if a[i].Text() != b[i].Text() {
			t.Errorf("query %d differs: %q vs %q", i, a[i].Text(), b[i].Text())
		}
	}
}

func TestGenerateTagFraction(t *testing.T) {
	doc := gen.Movies(gen.MoviesConfig{Movies: 20, Seed: 2})
	tagHeavy := Generate(doc, Config{Queries: 20, Keywords: 2, TagFraction: 0.95, Seed: 3})
	labels := map[string]bool{"movie": true, "movies": true, "title": true, "year": true,
		"genre": true, "director": true, "cast": true, "actor": true, "name": true,
		"role": true, "reviews": true, "review": true, "reviewer": true,
		"rating": true, "comment": true}
	tagHits, total := 0, 0
	for _, q := range tagHeavy {
		for _, k := range q.Keywords {
			total++
			if labels[k] {
				tagHits++
			}
		}
	}
	if total == 0 || float64(tagHits)/float64(total) < 0.5 {
		t.Errorf("tag-heavy workload only %d/%d tag keywords", tagHits, total)
	}
}

func TestGenerateEmptyDoc(t *testing.T) {
	doc := gen.Stores(gen.StoresConfig{Retailers: 1, StoresPerRetailer: 1, ClothesPerStore: 1, Seed: 1})
	// MinSubtree larger than the document: no queries, no panic.
	qs := Generate(doc, Config{Queries: 3, MinSubtree: 10_000, Seed: 1})
	if len(qs) != 0 {
		t.Errorf("queries = %d, want 0", len(qs))
	}
}

func TestStreamZipfSkew(t *testing.T) {
	doc := gen.Stores(gen.StoresConfig{Retailers: 4, StoresPerRetailer: 3, ClothesPerStore: 5, Seed: 7})
	qs := Generate(doc, Config{Queries: 10, Keywords: 2, Seed: 7})
	if len(qs) < 5 {
		t.Fatalf("workload too small: %d", len(qs))
	}
	st := NewStream(qs, 1.4, 3)
	counts := map[string]int{}
	const n = 4000
	for i := 0; i < n; i++ {
		counts[st.Next().Text()]++
	}
	head := counts[qs[0].Text()]
	if head*3 < n {
		t.Errorf("zipf head query drew %d of %d, want a dominant share", head, n)
	}
	// Determinism: same seed, same sequence.
	a := NewStream(qs, 1.4, 11).Take(50)
	b := NewStream(qs, 1.4, 11).Take(50)
	for i := range a {
		if a[i].Text() != b[i].Text() {
			t.Fatalf("stream %d differs: %q vs %q", i, a[i].Text(), b[i].Text())
		}
	}
	// Uniform fallback still covers the tail.
	uni := NewStream(qs, 0, 5)
	seen := map[string]bool{}
	for i := 0; i < 2000; i++ {
		seen[uni.Next().Text()] = true
	}
	if len(seen) != len(qs) {
		t.Errorf("uniform stream saw %d of %d distinct queries", len(seen), len(qs))
	}
}
