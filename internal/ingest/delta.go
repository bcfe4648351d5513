package ingest

import (
	"extract/internal/shard"
	"extract/xmltree"
)

// Source is the refresh-relevant identity of one corpus generation: the
// root fingerprint plus one content hash per shard (exactly one for a
// one-shard corpus). A delta reload compares the Source of the generation
// being served against the Source of new input to decide which shards can
// be adopted unchanged.
type Source struct {
	RootHash uint64
	Shards   []uint64
}

// Delta is Diff's verdict on a newly parsed document: how the document
// would partition, each prospective block's content hash, and whether the
// block must be rebuilt (true) or may adopt the previous generation's
// shard of the same position (false).
type Delta struct {
	RootHash uint64
	// Hashes and Changed are aligned with the blocks Partition will
	// produce for the same (doc, shards) pair.
	Hashes  []uint64
	Changed []bool
	// Reused counts the adoptable blocks (Changed[i] == false).
	Reused int
}

// Diff partitions doc's top-level entities exactly as shard.Partition
// would for the requested shard count — without moving a node — and
// hashes every prospective block against the previous generation. A block
// is adoptable only when the shard layout lines up (same root fingerprint,
// same block count) and its content hash matches the old shard at the
// same position; anything else, including a shape change, marks every
// block changed and the delta degrades to a full rebuild.
func Diff(old Source, doc *xmltree.Document, shards int) Delta {
	cuts := shard.Cuts(doc, shards)
	blocks := len(cuts) - 1
	d := Delta{
		Hashes:  make([]uint64, blocks),
		Changed: make([]bool, blocks),
	}
	var children []*xmltree.Node
	label, fromAttr := "", false
	if doc.Root != nil {
		children = doc.Root.Children
		label, fromAttr = doc.Root.Label, doc.Root.FromAttr
	}
	d.RootHash = RootHash(label, fromAttr, doc.InternalSubset)
	aligned := d.RootHash == old.RootHash && blocks == len(old.Shards)
	for b := 0; b < blocks; b++ {
		d.Hashes[b] = HashEntities(children[cuts[b]:cuts[b+1]])
		if aligned && d.Hashes[b] == old.Shards[b] {
			d.Reused++
		} else {
			d.Changed[b] = true
		}
	}
	return d
}
