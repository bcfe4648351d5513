// Package rank scores query results for relevance ordering. The paper
// frames snippets as the complement of ranking schemes ("to compensate the
// inaccuracy of ranking functions"); this package supplies the ranking side
// so the end-to-end system resembles the XRank/XSearch engines the demo
// cites: results are ordered, then snippets let users judge them.
//
// The score of a result for a keyword set is
//
//	score(R, Q) = Σ_{k∈Q} idf(k) · max_{m∈matches(k,R)} decay^depth(m)
//
// where idf(k) = log(1 + |elements| / (1 + df(k))) uses the corpus posting
// list size df(k), depth(m) is the match's depth below the result anchor,
// and decay ∈ (0,1] demotes matches buried deep in the result (XRank's
// rationale: a keyword on the result's own attributes beats one in a
// remote descendant).
package rank

import (
	"cmp"
	"math"
	"slices"

	"extract/internal/index"
	"extract/internal/search"
)

// Scorer ranks results against the document-frequency statistics of one
// corpus: a single index, or any df source (a sharded corpus sums posting
// counts across shards).
type Scorer struct {
	df func(keyword string) int
	// Decay is the per-edge depth decay in (0, 1]; NewScorer sets 0.8.
	Decay float64

	totalElements int
}

// NewScorer builds a scorer over the corpus index.
func NewScorer(ix *index.Index) *Scorer {
	st := ix.Document().ComputeStats()
	return NewScorerFunc(ix.Count, st.Elements)
}

// NewScorerFunc builds a scorer from an explicit document-frequency
// function and element count — how a sharded corpus supplies global
// statistics without materializing a merged index.
func NewScorerFunc(df func(keyword string) int, totalElements int) *Scorer {
	return &Scorer{df: df, Decay: 0.8, totalElements: totalElements}
}

// IDF returns the inverse document frequency weight of a keyword.
func (s *Scorer) IDF(keyword string) float64 {
	return math.Log(1 + float64(s.totalElements)/float64(1+s.df(keyword)))
}

// Score computes the relevance of one result for the tokenized query. With
// decay in (0, 1] the best-weighted match of a keyword is its shallowest, so
// a keyword contributes through one number, search.Result.MatchDepth — the
// number a deferred result carries without its tree, so a routed result
// scores by the same arithmetic as a local one.
func (s *Scorer) Score(r *search.Result, keywords []string) float64 {
	return s.score(r, keywords, s.weights(keywords))
}

// weights returns the IDF of each keyword, read once for a whole list of
// results: on a sharded corpus a document frequency is a lookup on every
// shard.
func (s *Scorer) weights(keywords []string) []float64 {
	idf := make([]float64, len(keywords))
	for i, kw := range keywords {
		idf[i] = s.IDF(kw)
	}
	return idf
}

// score is Score with the keywords' IDFs given (weights).
func (s *Scorer) score(r *search.Result, keywords []string, idf []float64) float64 {
	total := 0.0
	for i, kw := range keywords {
		d, ok := r.MatchDepth(kw)
		if !ok {
			continue
		}
		if w := math.Pow(s.Decay, float64(d)); w > 0 {
			total += idf[i] * w
		}
	}
	return total
}

// Order ranks results by descending score; ties keep the given order
// (stable). order[i] is the index in results of the i-th ranked result and
// scores[i] its score, so the caller's slice is left as it was. Each
// keyword's document frequency is read once, whatever the result count.
func (s *Scorer) Order(results []*search.Result, keywords []string) (order []int32, scores []float64) {
	order = make([]int32, len(results))
	byIndex := make([]float64, len(results))
	var idf []float64
	if len(results) > 0 {
		idf = s.weights(keywords)
	}
	for i, r := range results {
		order[i] = int32(i)
		byIndex[i] = s.score(r, keywords, idf)
	}
	slices.SortStableFunc(order, func(a, b int32) int { return cmp.Compare(byIndex[b], byIndex[a]) })
	scores = make([]float64, len(results))
	for i, o := range order {
		scores[i] = byIndex[o]
	}
	return order, scores
}

// Sort orders results in place by descending score; ties keep document
// order (stable). It returns the scores aligned with the sorted slice.
func (s *Scorer) Sort(results []*search.Result, keywords []string) []float64 {
	order, scores := s.Order(results, keywords)
	sorted := make([]*search.Result, len(results))
	for i, o := range order {
		sorted[i] = results[o]
	}
	copy(results, sorted)
	return scores
}
