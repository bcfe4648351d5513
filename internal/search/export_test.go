package search

// FreeBaseline is freeBaseline for the external tests, which evaluate on
// indexes from packages that import this one.
var FreeBaseline = freeBaseline
