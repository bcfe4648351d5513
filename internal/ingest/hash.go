package ingest

import (
	"hash/maphash"

	"extract/xmltree"
)

// Content hashes are a chunked FNV-1a 64 variant: stable across processes
// and platforms (they are persisted in snapshot manifests and compared
// against hashes computed years later by a different binary), seedless,
// and — because they fold eight little-endian bytes per multiply instead
// of one — cheap enough that hashing every block of a new document costs a
// fraction of tokenizing one shard, which is what keeps the delta path's
// bookkeeping from eating the work it saves. They fingerprint *source
// content* — kinds, labels, values and shape — never physical artifacts
// like preorder positions or intervals, so a shard's hash is
// identical whether computed from a freshly parsed partition block, from
// the reparented shard document of a built corpus, or from a shard decoded
// out of a packed image.
const (
	fnvOffset64 = 14695981039346656037
	fnvPrime64  = 1099511628211
)

// hasher accumulates the digest.
type hasher struct{ sum uint64 }

func newHasher() hasher { return hasher{sum: fnvOffset64} }

// word folds one 64-bit block in. The rotate spreads each block's bits
// before the next multiply so reordered blocks cannot cancel the way a
// plain xor-fold would allow.
func (h *hasher) word(v uint64) {
	x := (h.sum ^ v) * fnvPrime64
	h.sum = (x<<27 | x>>37) * fnvPrime64
}

func (h *hasher) u32(v uint32) { h.word(uint64(v)) }

// str hashes a length-prefixed string, so adjacent fields cannot alias
// ("ab"+"c" never hashes like "a"+"bc").
func (h *hasher) str(s string) { fold(h, s) }

// fold hashes length-prefixed bytes, eight per fold.
func fold[T string | []byte](h *hasher, s T) {
	h.word(uint64(len(s)))
	i := 0
	for ; i+8 <= len(s); i += 8 {
		h.word(uint64(s[i]) | uint64(s[i+1])<<8 | uint64(s[i+2])<<16 | uint64(s[i+3])<<24 |
			uint64(s[i+4])<<32 | uint64(s[i+5])<<40 | uint64(s[i+6])<<48 | uint64(s[i+7])<<56)
	}
	if i < len(s) {
		// The trailing block is zero-padded; the length prefix keeps
		// padded tails from colliding with genuine zero bytes.
		var tail uint64
		for j := 0; i < len(s); i, j = i+1, j+8 {
			tail |= uint64(s[i]) << j
		}
		h.word(tail)
	}
}

func (h *hasher) bool(b bool) {
	if b {
		h.word(1)
	} else {
		h.word(0)
	}
}

// hashSubtree folds one node's subtree into h in preorder: one packed
// metadata word (kind, attribute origin, child count) plus the label and
// value strings per node.
func hashSubtree(h *hasher, n *xmltree.Node) {
	meta := uint64(n.Kind)
	if n.FromAttr {
		meta |= 1 << 8
	}
	meta |= uint64(uint32(len(n.Children))) << 32
	h.word(meta)
	h.str(n.Label)
	h.str(n.Value)
	for _, c := range n.Children {
		hashSubtree(h, c)
	}
}

// HashEntities fingerprints a contiguous block of top-level entities — the
// unit the delta path compares. The same function hashes a prospective
// partition block of a newly parsed document and the root children of an
// existing shard document, which is what makes the two comparable.
func HashEntities(nodes []*xmltree.Node) uint64 {
	h := newHasher()
	h.u32(uint32(len(nodes)))
	for _, n := range nodes {
		hashSubtree(&h, n)
	}
	return h.sum
}

// ShardHash fingerprints one shard's source content: the entities under
// its root (the root itself is a per-shard copy covered by RootHash, not
// shard content). For a one-shard corpus, the whole document is the one
// shard.
func ShardHash(doc *xmltree.Document) uint64 {
	if doc == nil || doc.Root == nil {
		return HashEntities(nil)
	}
	return HashEntities(doc.Root.Children)
}

// RootHash fingerprints the document-global facts a delta reload cannot
// adopt across: the root element's label and attribute origin (copied into
// every shard root) and the DOCTYPE internal subset (classification
// input). When it moves, every shard is rebuilt.
func RootHash(label string, fromAttr bool, subset string) uint64 {
	h := newHasher()
	h.str(label)
	h.bool(fromAttr)
	h.str(subset)
	return h.sum
}

// hashBytes fingerprints a serialized image: what a manifest records as
// ImageHash, the reader verifies every image it opens against, and an
// incremental Snapshot checks before it keeps an image already on disk.
// It is the chunked FNV above because the hash is persisted: a process reads
// what another wrote. The pieces of XML input a generation remembers are
// never persisted, and hash with memoHash.
func hashBytes(data []byte) uint64 {
	h := newHasher()
	fold(&h, data)
	return h.sum
}

// memoSeed keys memoHash, one seed a process.
var memoSeed = maphash.MakeSeed()

// memoHash fingerprints a piece of XML input for the in-memory memo a
// generation keeps of it (see Generation): maphash, an order of magnitude
// faster than the FNV fold, and keyed by a seed of this process alone, so
// the writer of a file cannot aim a collision at a piece already seen. Its
// values mean nothing to another process, and are never persisted.
func memoHash(b []byte) uint64 { return maphash.Bytes(memoSeed, b) }
