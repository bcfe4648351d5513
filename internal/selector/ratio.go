package selector

import (
	"slices"

	"extract/internal/features"
	"extract/internal/ilist"
	"extract/xmltree"
)

// GreedyRatio is an alternative instance selector for the E12 ablation: at
// every step it covers the affordable item maximizing importance/cost,
// where importance is the positional weight 1/(1+rank), instead of walking
// the IList strictly in rank order. Rank-order greedy (the paper's choice)
// can burn budget on an expensive high-rank item; ratio greedy trades that
// item for several cheap lower-ranked ones. The ablation measures whether
// that trade ever pays on this workload.
func GreedyRatio(doc *xmltree.Document, il *ilist.IList, stats *features.Stats, bound int) *Snippet {
	s := begin(doc, il, stats)
	defer s.release()
	edges := 0

	remaining := make([]bool, il.Len())
	for i := range remaining {
		remaining[i] = true
	}
	left := len(remaining)
	var covered []int
	sweep := func() {
		for i := range il.Items {
			if remaining[i] && s.covers(i) {
				remaining[i] = false
				left--
				covered = append(covered, i)
			}
		}
	}
	sweep()

	for left > 0 {
		bestIdx, bestCost := -1, 0
		bestRatio := -1.0
		for idx := range il.Items {
			if !remaining[idx] {
				continue
			}
			for _, n := range s.instances(idx) {
				c := s.cost(n, -1)
				if edges+c > bound {
					continue
				}
				var ratio float64
				if c == 0 {
					ratio = 1e18 // free coverage always wins
				} else {
					ratio = (1.0 / float64(1+idx)) / float64(c)
				}
				// Items are tried in rank order, so on equal ratios
				// the lower rank — then the earlier instance — stays.
				if ratio > bestRatio {
					bestRatio, bestIdx, bestCost = ratio, idx, c
					s.best, s.path = s.path, s.best
				}
			}
		}
		if bestIdx < 0 {
			break // nothing affordable remains
		}
		s.addAll(s.best)
		edges += bestCost
		remaining[bestIdx] = false
		left--
		covered = append(covered, bestIdx)
		sweep()
	}

	var skipped []int
	for i := range il.Items {
		if remaining[i] {
			skipped = append(skipped, i)
		}
	}
	slices.Sort(covered)
	s.shape()
	return &Snippet{Root: s.materialize(), Covered: covered, Skipped: skipped, Edges: edges}
}
