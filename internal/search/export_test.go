package search

// FreeBaseline is freeBaseline for the external tests, which evaluate on
// indexes from packages that import this one.
var FreeBaseline = freeBaseline

// NodesOf is nodesOf for the external tests: an evaluation's LCA set is
// column entries.
var NodesOf = nodesOf
