// Package shard is the local corpus: an analyzed XML corpus as n >= 1
// independently indexed shards, and keyword-query evaluation across them —
// per-shard SLCA/ELCA evaluation fans out in parallel, and the per-shard
// result streams merge through a bounded top-k merge. That procedure is
// stated once, as Merge over an abstract source of per-shard evidence
// (Rounds): Corpus drives it over its own shards, and internal/remote
// drives the same function over shards behind a wire. Classification and key
// mining are computed once, globally, before partitioning, so every shard
// anchors and classifies results exactly like an engine over the whole
// document — which is what a one-shard corpus is, and many-shard query
// results are identical to its (pinned by the equivalence property tests).
//
// Shard boundaries follow the document's own top-level structure: the
// children of the root (the top-level entities of the database) are split
// into contiguous, size-balanced blocks, each reparented under a copy of
// the root and finalized as its own document. Contiguity makes the pair
// (shard index, local preorder position) a global document-order key, which
// is what lets the merge be a streaming k-way merge instead of a re-sort.
//
// Results that can only be expressed across shard boundaries — the root
// itself qualifying as an LCA, or a result anchored at the root — fall back
// to a lazily reconstructed whole-document corpus (Merge's last round), so
// correctness never depends on a query being shard-local.
package shard

import (
	"extract/xmltree"
)

// Cuts returns the child-index boundaries BuildFrom cuts doc's root
// children at: a strictly increasing sequence starting at 0 and ending at
// len(root.Children), one interval per shard. A document that does not
// partition (no root, n <= 1, fewer than two children) yields the single
// interval [0, len(children)]. Cuts is read-only — ingest.Diff uses it to
// hash the prospective blocks of a new document against a previous
// generation's shards before BuildFrom decides what to rebuild.
func Cuts(doc *xmltree.Document, n int) []int {
	root := doc.Root
	if root == nil {
		return []int{0, 0}
	}
	children := root.Children
	if n <= 1 || len(children) < 2 {
		return []int{0, len(children)}
	}
	if n > len(children) {
		n = len(children)
	}

	// Contiguous blocks balanced by subtree node count. The greedy cut
	// closes a block once it reaches the ideal share of the remaining
	// weight, while always leaving enough children for the remaining
	// blocks.
	weights := make([]int, len(children))
	totalWeight := 0
	for i, c := range children {
		weights[i] = int(c.End-c.Start) + 1
		totalWeight += weights[i]
	}

	cuts := []int{0}
	start := 0
	remaining := totalWeight
	for b := 0; b < n && start < len(children); b++ {
		blocksLeft := n - b
		target := (remaining + blocksLeft - 1) / blocksLeft
		end := start
		acc := 0
		for end < len(children) {
			// Never leave fewer children than blocks still to fill.
			if len(children)-end-1 < blocksLeft-1 && acc > 0 {
				break
			}
			acc += weights[end]
			end++
			if acc >= target && len(children)-end >= blocksLeft-1 {
				break
			}
		}
		cuts = append(cuts, end)
		remaining -= acc
		start = end
	}
	return cuts
}

// partitionAt materializes block b of the split at the given Cuts
// boundaries: the root children in [cuts[b], cuts[b+1]) reparented under a
// fresh copy of the root element (same label, same DOCTYPE internal subset)
// and finalized. The children are MOVED, not copied, out of doc, which is
// invalid afterwards. Block documents are independent — BuildFrom
// materializes only the blocks it does not adopt and leaves the others'
// children where they are. One block in all (a document with no root or a
// single top-level entity, or n <= 1) is the one-block rule: the shard is
// the document itself, unmoved, so a one-shard corpus serves exactly the
// tree it was given.
func partitionAt(doc *xmltree.Document, cuts []int, b int) *xmltree.Document {
	if len(cuts) == 2 {
		return doc
	}
	root := doc.Root
	shardRoot := &xmltree.Node{
		Kind:     xmltree.KindElement,
		Label:    root.Label,
		FromAttr: root.FromAttr,
	}
	for _, c := range root.Children[cuts[b]:cuts[b+1]] {
		xmltree.Append(shardRoot, c)
	}
	d := xmltree.NewDocument(shardRoot)
	d.InternalSubset = doc.InternalSubset
	return d
}
