package ingest

import (
	"extract/internal/core"
	"extract/internal/dtd"
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

// Generation is one corpus generation with its identity: Corpus is the
// corpus (one shard or many), and Source its root fingerprint and per-shard
// content hashes — computed while building, or carried over from a snapshot
// manifest — so the next refresh can diff against it without rehashing its
// documents. Build and LoadDelta both take one as "previous" and return one.
type Generation struct {
	Corpus *shard.Corpus
	Source Source
}

// SourceOf fingerprints a live corpus the way a snapshot manifest records it
// (RootHash + per-shard ShardHash, one linear pass over the documents), so a
// shard server built from an in-memory corpus and a router built from the
// manifest of the snapshot it was written to agree on the generation.
func SourceOf(sc *shard.Corpus) Source {
	label, fromAttr := sc.Root()
	src := Source{RootHash: RootHash(label, fromAttr, sc.InternalSubset())}
	for _, s := range sc.Shards() {
		src.Shards = append(src.Shards, ShardHash(s.Doc))
	}
	return src
}

// Build analyzes doc into a corpus generation of at most shards shards,
// adopting from prev (nil for none) every block Diff marks unchanged and
// building the rest — shard.BuildFrom, with content hashes deciding what to
// adopt. reused counts the adopted blocks. The global analysis is always
// recomputed over the new document, so the result answers byte-identically
// whatever prev was (pinned by the facade's property tests). d may be nil;
// doc is consumed, like shard.Build's.
func Build(doc *xmltree.Document, shards int, d *dtd.DTD, prev *Generation) (g *Generation, reused int) {
	var old Source
	if prev != nil {
		old = prev.Source
	}
	diff := Diff(old, doc, shards)
	adopt := make([]*core.Corpus, len(diff.Changed))
	for b, changed := range diff.Changed {
		if !changed { // never against the empty Source of a nil prev
			adopt[b] = prev.Corpus.Shards()[b]
		}
	}
	return &Generation{
		Corpus: shard.BuildFrom(doc, shards, adopt, shard.WithDTD(d)),
		Source: Source{RootHash: diff.RootHash, Shards: diff.Hashes},
	}, diff.Reused
}

// Delta is Diff's verdict on a newly parsed document: how the document
// would partition, each prospective block's content hash, and whether the
// block must be rebuilt (true) or may adopt the previous generation's
// shard of the same position (false).
type Delta struct {
	RootHash uint64
	// Hashes and Changed are aligned with the blocks shard.BuildFrom
	// cuts for the same (doc, shards) pair.
	Hashes  []uint64
	Changed []bool
	// Reused counts the adoptable blocks (Changed[i] == false).
	Reused int
}

// Diff partitions doc's top-level entities exactly as shard.BuildFrom
// will for the requested shard count — without moving a node — and
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
