package search

import (
	"slices"

	"extract/xmltree"
)

// FreeBaseline is freeBaseline for the external tests, which evaluate on
// indexes from packages that import this one.
var FreeBaseline = freeBaseline

// NodesOf is nodesOf for the external tests: an evaluation's LCA set is
// column entries.
var NodesOf = nodesOf

// EvaluateBounded is evaluateBounded over a query string, for the tests that
// inspect an evaluation.
func (e *Engine) EvaluateBounded(query string, limit int) (*Evaluation, error) {
	return e.evaluateBounded(Parse(query), limit)
}

// Results builds, for the tests, the results for the given LCA subset of an
// evaluation, in document order, applying the engine's DistinctAnchors and
// MaxResults options as evaluation does (Evaluate, then Build). The LCAs are
// elements of the engine's document.
func (e *Engine) Results(ev *Evaluation, lcas []*xmltree.Node) []*Result {
	pos := e.ix.Columns().Pos
	entries := make([]int32, len(lcas))
	for i, lca := range lcas {
		at, _ := slices.BinarySearch(pos, lca.Start)
		entries[i] = int32(at)
	}
	return e.Build(nil, ev, e.hits(entries, nil))
}
