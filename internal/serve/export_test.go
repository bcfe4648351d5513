package serve

// Cost exposes the cache charge to the external tests, which drive a routed
// backend (internal/remote imports this package).
func (v *Cached) Cost() int64 { return v.cost() }
