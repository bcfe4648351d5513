package search

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
