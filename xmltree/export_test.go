package xmltree

// Exposed to the external test package, which seeds the differential pin
// with generated corpora (internal/gen imports this package).
var (
	OracleParse        = oracleParse
	StrippedToNonNames = strippedToNonNames
)
