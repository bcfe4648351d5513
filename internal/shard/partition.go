// Package shard is the local corpus: an analyzed XML corpus as n >= 1
// independently indexed shards, and keyword-query evaluation across them —
// per-shard SLCA/ELCA evaluation fans out in parallel, and the per-shard
// result streams merge through a bounded top-k merge. That procedure is
// stated once, as Merge over an abstract source of per-shard evidence
// (Rounds): Corpus drives it over its own shards, and internal/remote
// drives the same function over shards behind a wire. Classification and key
// mining are global — the merge of every shard's share of the analysis — so
// every shard anchors and classifies results exactly like an engine over the
// whole document, which is what a one-shard corpus is, and many-shard query
// results are identical to its (pinned by the equivalence property tests).
//
// Shard boundaries follow the document's own top-level structure: the
// children of the root (the top-level entities of the database) are split
// into contiguous, size-balanced blocks, each reparented under a copy of
// the root and finalized as its own document. Contiguity makes the pair
// (shard index, local preorder position) a global document-order key, which
// is what lets the bounded top-k merge be a concatenation with a cutoff
// (MergeTake) instead of a re-sort.
//
// Results that can only be expressed across shard boundaries — the root
// itself qualifying as an LCA, or a result anchored at the root — are
// composed by Merge's second round from the shards' own evidence: such a
// result is a view of the whole document over the shards (Corpus.Whole,
// index.Whole), addressed by global positions, and nothing is copied on the
// query path, so correctness never depends on a query being shard-local.
// No copy of the whole document is kept: a reader that needs it as one tree
// (a whole-document result's Tree, the facade's XPath) builds it from the
// shards (search.WholeDocument) and holds it itself.
package shard

import (
	"extract/xmltree"
)

// Blocks is a document as BuildFrom builds it: the root's identity and its
// top-level entities, cut into contiguous blocks.
type Blocks struct {
	Label    string
	FromAttr bool
	Subset   string // the DOCTYPE internal subset
	// Entities are the root's children in document order. An entity of a
	// block BuildFrom adopts is never read, and may be nil: not parsed.
	Entities []*xmltree.Node
	// Cuts are the block boundaries over Entities (see Cuts).
	Cuts []int
	// Whole is the document the entities are the root's children of, when
	// there is one: a corpus of one block serves it unmoved.
	Whole *xmltree.Document
}

// BlocksOf returns doc as BuildFrom's input, its Cuts not yet set.
func BlocksOf(doc *xmltree.Document) Blocks {
	bl := Blocks{Subset: doc.InternalSubset, Whole: doc}
	if root := doc.Root; root != nil {
		bl.Label, bl.FromAttr, bl.Entities = root.Label, root.FromAttr, root.Children
	}
	return bl
}

// Weights returns the node count of each entity's subtree: what Cuts
// balances.
func Weights(entities []*xmltree.Node) []int {
	w := make([]int, len(entities))
	for i, c := range entities {
		w[i] = int(c.End-c.Start) + 1
	}
	return w
}

// Cuts returns the entity-index boundaries BuildFrom cuts a document's
// top-level entities at, given their node counts (Weights): a strictly
// increasing sequence starting at 0 and ending at len(weights), one interval
// per block. Fewer than two entities, or n <= 1, yields the single interval
// [0, len(weights)]. The layout is a function of the counts alone, so they
// may come from anywhere that agrees with a parse: internal/ingest takes
// those of entities it does not parse from the generation that did.
func Cuts(weights []int, n int) []int {
	if n <= 1 || len(weights) < 2 {
		return []int{0, len(weights)}
	}
	n = min(n, len(weights))

	// Contiguous blocks balanced by subtree node count. The greedy cut
	// closes a block once it reaches the ideal share of the remaining
	// weight, while always leaving enough entities for the remaining
	// blocks.
	remaining := 0
	for _, w := range weights {
		remaining += w
	}
	cuts := []int{0}
	start := 0
	for b := 0; b < n && start < len(weights); b++ {
		blocksLeft := n - b
		target := (remaining + blocksLeft - 1) / blocksLeft
		end := start
		acc := 0
		for end < len(weights) {
			// Never leave fewer entities than blocks still to fill.
			if len(weights)-end-1 < blocksLeft-1 && acc > 0 {
				break
			}
			acc += weights[end]
			end++
			if acc >= target && len(weights)-end >= blocksLeft-1 {
				break
			}
		}
		cuts = append(cuts, end)
		remaining -= acc
		start = end
	}
	return cuts
}

// block materializes block b: its entities reparented under a fresh copy of
// the root element (same label, same DOCTYPE internal subset) and
// finalized. The entities are MOVED, not copied — a Whole document is
// invalid afterwards — and block documents are independent, so BuildFrom
// materializes only the blocks it does not adopt. One block in all, with a
// Whole document, is the one-block rule: the shard is the document itself,
// unmoved, so a one-shard corpus serves exactly the tree it was given.
func (bl *Blocks) block(b int) *xmltree.Document {
	if len(bl.Cuts) == 2 && bl.Whole != nil {
		return bl.Whole
	}
	root := &xmltree.Node{
		Kind:     xmltree.KindElement,
		Label:    bl.Label,
		FromAttr: bl.FromAttr,
	}
	for _, c := range bl.Entities[bl.Cuts[b]:bl.Cuts[b+1]] {
		xmltree.Append(root, c)
	}
	d := xmltree.NewDocument(root)
	d.InternalSubset = bl.Subset
	return d
}
