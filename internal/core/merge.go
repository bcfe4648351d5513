package core

import (
	"runtime"
	"sync"
	"sync/atomic"

	"extract/internal/classify"
	"extract/internal/dtd"
	"extract/internal/keys"
	"extract/xmltree"
)

// Partial is one shard's share of its corpus's analysis: the classification
// evidence of its document, and its key-mining evidence together with the
// classification that evidence was collected under. A partial is never
// modified, so an adopted shard carries it into the next generation as it is
// (Corpus.Partial), and a merge recomputes only what a shard's lacks.
type Partial struct {
	cls   *classify.Partial
	keys  *keys.Partial
	under *classify.Classification
}

// Infer returns doc's partial with its classification evidence; Merge adds
// the key evidence.
func Infer(doc *xmltree.Document) *Partial { return &Partial{cls: classify.Infer(doc)} }

// Merge computes a corpus's analysis from its shards' partials — what
// Analyze computes over the whole document, however it was cut — and leaves
// every shard's Partial complete for the next merge. A shard without one (a
// shard decoded from an image) is inferred here. The classification merges
// first; key evidence depends on it, so a shard's is reused when it was
// collected under an equal classification and collected again otherwise: a
// delta that leaves the classification as it was walks only the shards it
// rebuilt, one that changes it walks every shard. Shards are walked
// concurrently.
func Merge(shards []*Corpus, d *dtd.DTD) *Analysis {
	Each(len(shards), func(i int) {
		if shards[i].Partial == nil {
			shards[i].Partial = Infer(shards[i].Doc)
		}
	})
	clsParts := make([]*classify.Partial, len(shards))
	for i, s := range shards {
		clsParts[i] = s.Partial.cls
	}
	var opts []classify.Option
	if d != nil {
		opts = append(opts, classify.WithDTD(d))
	}
	cls := classify.Merge(clsParts, opts...)
	Each(len(shards), func(i int) {
		if p := shards[i].Partial; p.keys == nil || !p.under.Equal(cls) {
			shards[i].Partial = &Partial{cls: p.cls, keys: keys.Collect(shards[i].Doc, cls), under: cls}
		}
	})
	keyParts := make([]*keys.Partial, len(shards))
	for i, s := range shards {
		keyParts[i] = s.Partial.keys
	}
	return &Analysis{Cls: cls, Keys: keys.Merge(keyParts)}
}

// Each calls fn(0), …, fn(n-1) on up to GOMAXPROCS goroutines and returns
// once every call has.
func Each(n int, fn func(i int)) {
	workers := min(n, runtime.GOMAXPROCS(0))
	if workers < 2 {
		for i := range n {
			fn(i)
		}
		return
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	for range workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := int(next.Add(1) - 1); i < n; i = int(next.Add(1) - 1) {
				fn(i)
			}
		}()
	}
	wg.Wait()
}
