package ingest

import (
	"errors"
	"sort"

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
// documents. Build, BuildSplit and LoadDelta all take one as "previous" and
// return one.
//
// A generation BuildSplit made remembers the XML input it read, in memory
// only (never in a snapshot), as offsets and hashes — never the bytes, so
// the input is not pinned: segs, per shard, each top-level entity's byte
// hash and node count, and layout, where each piece of the input lay —
// the bytes before the first entity, each entity, each gap between two,
// the bytes after the last — and what it hashed to. The next delta from
// XML splits its input against the layout (SplitAfter), scanning only the
// bytes that moved, and builds against segs (BuildSplit), parsing only the
// entities it has not seen byte for byte. A generation built from a parsed
// document or loaded from a snapshot remembers neither: its next delta
// scans and parses every segment, and adopts by content hash as ever.
type Generation struct {
	Corpus *shard.Corpus
	Source Source
	// segs spares the next BuildSplit the parse of every segment it has
	// seen byte for byte: such a segment is adopted with its block, or
	// copied out of the shard document that holds it.
	segs [][]segment
	// layout spares the next SplitAfter the scan of every run of entities
	// the input still holds where this one held them.
	layout layout
}

// Stats reports what one build did with its input: the blocks it adopted
// from the previous generation, and the top-level entities it read — parsed
// from their bytes, or copied out of the previous generation's shard
// documents because it had read those very bytes. An entity of a block
// adopted unread is neither.
type Stats struct {
	Reused, Parsed, Copied int
}

// segmentAt locates a segment a generation read: the shard holding it and
// its position among that shard root's children.
type segmentAt struct {
	segment
	shard, child int
}

// segment is one top-level entity's source bytes, as a generation remembers
// them.
type segment struct {
	hash  uint64 // memoHash of the bytes
	nodes int    // the node count they parse to
}

// piece is one stretch of an input a generation remembers: where it ends
// (it starts where the piece before it ends) and the memoHash of its bytes.
type piece struct {
	end  int
	hash uint64
}

// layout is an input split at its root's children as pieces, in input
// order: the bytes before the first child, then each child and the bytes
// after it. Piece 2i+1 is child i, and an even piece the bytes around the
// children — the head, a gap or the tail.
type layout []piece

// start returns where piece k begins.
func (l layout) start(k int) int {
	if k == 0 {
		return 0
	}
	return l[k-1].end
}

// SplitAfter splits data at its root's children as xmltree.SplitBytes does,
// passing over what data holds of the input prev was built from. The
// pieces of prev's layout are compared with data at the same offsets from
// its start, then, clear of that run, at the same offsets from its end; the
// children of each run matched, with the gaps between them, are a jump
// (xmltree.SplitSkipping). A child edited in place, grown or shrunk leaves
// the children before it in the first run and the ones after it in the
// second, so the scan reads the head, that child and the tail. The head and
// the tail are always scanned, so the root, the internal subset and the
// verdict are data's own; and the split equals SplitBytes(data) whenever
// equal memo hashes mean equal bytes, the rule the segment memo rests on.
// Without a layout to match (no prev, or one not built from XML) it is
// SplitBytes.
func SplitAfter(data []byte, prev *Generation, opts ...xmltree.ParseOption) *xmltree.Split {
	var jumps []xmltree.Jump
	if prev != nil {
		jumps = prev.layout.jumps(data)
	}
	return xmltree.SplitSkipping(data, jumps, opts...)
}

// jumps matches data against l: the longest run of l's pieces from the
// first that data holds at the same offsets, then the longest from the last
// that it holds at the same offsets from its end, short of the first run's
// end. Each run's pieces but the head and the tail are a jump, if they hold
// a child.
func (l layout) jumps(data []byte) []xmltree.Jump {
	if len(l) < 3 {
		return nil // no child
	}
	front, at := 0, 0
	for front < len(l) && l[front].end <= len(data) && memoHash(data[at:l[front].end]) == l[front].hash {
		at = l[front].end
		front++
	}
	shift := len(data) - l[len(l)-1].end
	back, end := len(l), len(data)
	for back > front {
		lo := l.start(back-1) + shift
		if lo < at || memoHash(data[lo:end]) != l[back-1].hash {
			break
		}
		back, end = back-1, lo
	}
	var jumps []xmltree.Jump
	if j, ok := l.jump(1, min(front, len(l)-1), 0); ok {
		jumps = append(jumps, j)
	}
	if j, ok := l.jump(max(back, 1), len(l)-1, shift); ok {
		jumps = append(jumps, j)
	}
	return jumps
}

// jump returns the pieces [lo, hi) of l, moved by shift, as a jump; false
// if they hold no child.
func (l layout) jump(lo, hi, shift int) (xmltree.Jump, bool) {
	var segs []xmltree.Segment
	for k := lo | 1; k < hi; k += 2 { // the odd pieces are children
		segs = append(segs, xmltree.Segment{Start: l.start(k) + shift, End: l[k].end + shift})
	}
	if segs == nil {
		return xmltree.Jump{}, false
	}
	return xmltree.Jump{Start: l.start(lo) + shift, End: l[hi-1].end + shift, From: l.start(lo), Segments: segs}, true
}

// layoutOf lays out sp's input. A non-empty piece inside a jump the split
// took has the hash of the piece that holds it in was, the layout of the
// input the jump stands for, since its bytes are that piece's; every other
// piece is hashed.
func layoutOf(sp *xmltree.Split, was layout) layout {
	l := make(layout, 2*len(sp.Segments)+1)
	jumped := sp.Jumped
	at := 0
	for k := range l {
		b := sp.Between(k / 2)
		if k%2 == 1 {
			b = sp.Bytes(k / 2)
		}
		end := at + len(b)
		for len(jumped) > 0 && jumped[0].End <= at {
			jumped = jumped[1:]
		}
		if j := jumped; len(j) > 0 && j[0].Start <= at && at < end && end <= j[0].End {
			off := at - j[0].Start + j[0].From
			l[k] = piece{end: end, hash: was[sort.Search(len(was), func(p int) bool { return was[p].end > off })].hash}
		} else {
			l[k] = piece{end: end, hash: memoHash(b)}
		}
		at = end
	}
	return l
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

// Adoptable reports, per shard of next, whether the shard of old at the same
// position holds the same content, and how many do — the rule every delta
// adopts by: the same root fingerprint, the same shard count, and the same
// content hash at the same position.
func Adoptable(old, next Source) (same []bool, n int) {
	same = make([]bool, len(next.Shards))
	if old.RootHash == next.RootHash && len(old.Shards) == len(next.Shards) {
		for i, h := range next.Shards {
			if old.Shards[i] == h {
				same[i] = true
				n++
			}
		}
	}
	return same, n
}

// Build analyzes doc into a corpus generation of at most shards shards,
// adopting from prev (nil for none) every block Diff marks unchanged and
// building the rest — shard.BuildFrom, with content hashes deciding what to
// adopt. reused counts the adopted blocks. The analysis is the merge of
// every shard's partial, an adopted shard's carried over, so the result
// answers byte-identically whatever prev was (pinned by the facade's
// property tests). d may be nil; doc is consumed, like shard.Build's.
func Build(doc *xmltree.Document, shards int, d *dtd.DTD, prev *Generation) (g *Generation, reused int) {
	g, reused, _ = fromDocument(doc).build(shards, d, prev) // a parsed document has nothing left to refuse
	return g, reused
}

// BuildSplit is Build from a document's bytes, split at its root's children
// (SplitAfter with prev, or xmltree.SplitBytes), reading only the segments
// it needs, concurrently. It hashes every piece of the input, serially —
// memoHash runs at memory speed — but the ones inside a jump the split
// took, which take their hashes from prev's layout: sp must be a split of
// the input against prev, or a plain one. A segment whose bytes prev
// read needs no parse for its node count, so the blocks are cut as for the
// parsed document; a block whose segments are prev's block at the same
// position, byte for byte, is adopted unread; every other block is read,
// hashed, and adopted or built as Build would. Only a segment whose bytes
// are new is parsed: one prev read is copied out of prev's shard document
// (xmltree.Document.CopySegment), when the root fingerprint is prev's. The
// generation equals Build's of the parsed document, and remembers its
// input (see Generation) for the next delta. An error is a segment's parse
// failing or the node bound (xmltree.WithMaxNodes) exceeded; which error
// the document has, a whole parse (xmltree.ParseBytes) says.
func BuildSplit(sp *xmltree.Split, shards int, d *dtd.DTD, prev *Generation) (g *Generation, st Stats, err error) {
	n := len(sp.Segments)
	in := &input{
		bl:      shard.Blocks{Label: sp.Root, Subset: sp.InternalSubset, Entities: make([]*xmltree.Node, n)},
		weights: make([]int, n),
		sp:      sp,
		seen:    make(map[uint64]segmentAt),
	}
	var was layout
	if prev != nil {
		for b, block := range prev.segs {
			for j, s := range block {
				in.seen[s.hash] = segmentAt{segment: s, shard: b, child: j}
			}
		}
		if RootHash(in.bl.Label, in.bl.FromAttr, in.bl.Subset) == prev.Source.RootHash {
			in.from = prev.Corpus
		}
		was = prev.layout
	}
	in.layout = layoutOf(sp, was)
	var unseen []int
	for i := range n {
		if s, ok := in.seen[in.hash(i)]; ok {
			in.weights[i] = s.nodes
		} else {
			unseen = append(unseen, i)
		}
	}
	if err := in.read(unseen); err != nil {
		return nil, Stats{}, err
	}
	total := 1 // the root
	for _, w := range in.weights {
		total += w
	}
	if err := sp.Limit(total); err != nil {
		return nil, Stats{}, err
	}
	g, st.Reused, err = in.build(shards, d, prev)
	if err != nil {
		return nil, Stats{}, err
	}
	for i, e := range in.bl.Entities {
		switch {
		case sp.Parsed(i):
			st.Parsed++
		case e != nil:
			st.Copied++
		}
	}
	return g, st, nil
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

// Diff cuts doc's top-level entities exactly as the build will for the
// requested shard count — without moving a node — and hashes every
// prospective block against the previous generation. A block is adoptable
// only by the Adoptable rule; anything else, including a shape change,
// marks every block changed and the delta degrades to a full rebuild.
func Diff(old Source, doc *xmltree.Document, shards int) Delta {
	in := fromDocument(doc)
	return in.diff(old, shard.Cuts(in.weights, shards), nil)
}

// input is a document as the builder reads it: BuildFrom's blocks (cut by
// build), the entities' node counts and — from bytes — the split they are
// read from on demand, with its layout, the segments the previous
// generation read (seen) and, when its root fingerprint is the input's,
// that generation's corpus to copy them out of (from).
type input struct {
	bl      shard.Blocks
	weights []int
	sp      *xmltree.Split
	layout  layout
	seen    map[uint64]segmentAt
	from    *shard.Corpus
}

// hash returns segment i's byte hash.
func (in *input) hash(i int) uint64 { return in.layout[2*i+1].hash }

func fromDocument(doc *xmltree.Document) *input {
	in := &input{bl: shard.BlocksOf(doc)}
	in.weights = shard.Weights(in.bl.Entities)
	return in
}

// build cuts the input, decides per block what to adopt from prev (nil for
// none), and builds the generation.
func (in *input) build(shards int, d *dtd.DTD, prev *Generation) (*Generation, int, error) {
	var old Source
	var was [][]segment
	if prev != nil {
		old, was = prev.Source, prev.segs
	}
	cuts := shard.Cuts(in.weights, shards)
	in.bl.Cuts = cuts
	blocks := len(cuts) - 1
	// A block whose segments are prev's block, byte for byte, holds prev's
	// content unread; every other block is read whole.
	aligned := in.from != nil && len(was) == blocks
	same := make([]bool, blocks)
	var need []int
	for b := range blocks {
		same[b] = aligned && in.sameBytes(cuts[b], cuts[b+1], was[b])
		for i := cuts[b]; i < cuts[b+1] && !same[b]; i++ {
			if in.bl.Entities[i] == nil {
				need = append(need, i)
			}
		}
	}
	if err := in.read(need); err != nil {
		return nil, 0, err
	}
	diff := in.diff(old, cuts, same)
	adopt := make([]*core.Corpus, blocks)
	for b, changed := range diff.Changed {
		if !changed { // never against the empty Source of a nil prev
			adopt[b] = prev.Corpus.Shards()[b]
		}
	}
	g := &Generation{
		Corpus: shard.BuildFrom(&in.bl, adopt, shard.WithDTD(d)),
		Source: Source{RootHash: diff.RootHash, Shards: diff.Hashes},
	}
	if in.sp != nil {
		g.segs, g.layout = make([][]segment, blocks), in.layout
		for b := range g.segs {
			for i := cuts[b]; i < cuts[b+1]; i++ {
				g.segs[b] = append(g.segs[b], segment{hash: in.hash(i), nodes: in.weights[i]})
			}
		}
	}
	return g, diff.Reused, nil
}

// sameBytes reports whether the segments [lo, hi) are the ones was records,
// byte for byte.
func (in *input) sameBytes(lo, hi int, was []segment) bool {
	if hi-lo != len(was) {
		return false
	}
	for i, s := range was {
		if in.hash(lo+i) != s.hash {
			return false
		}
	}
	return true
}

// read reads the given segments concurrently, recording each entity and its
// node count: a segment the previous generation read is copied out of its
// shard document when in.from is set, and every other one parsed.
func (in *input) read(segs []int) error {
	errs := make([]error, len(segs))
	core.Each(len(segs), func(j int) {
		i := segs[j]
		if s, ok := in.seen[in.hash(i)]; ok && in.from != nil {
			doc := in.from.Shards()[s.shard].Doc
			in.bl.Entities[i], in.weights[i] = doc.CopySegment(doc.Root.Children[s.child]), s.nodes
			return
		}
		n, err := in.sp.Parse(i)
		if err != nil {
			errs[j] = err
			return
		}
		in.bl.Entities[i], in.weights[i] = n, int(n.End-n.Start)+1
	})
	return errors.Join(errs...)
}

// diff hashes every block — one that same marks takes old's hash, unparsed
// — and decides each by the Adoptable rule.
func (in *input) diff(old Source, cuts []int, same []bool) Delta {
	blocks := len(cuts) - 1
	d := Delta{
		RootHash: RootHash(in.bl.Label, in.bl.FromAttr, in.bl.Subset),
		Hashes:   make([]uint64, blocks),
		Changed:  make([]bool, blocks),
	}
	core.Each(blocks, func(b int) {
		if same != nil && same[b] {
			d.Hashes[b] = old.Shards[b]
		} else {
			d.Hashes[b] = HashEntities(in.bl.Entities[cuts[b]:cuts[b+1]])
		}
	})
	adoptable, reused := Adoptable(old, Source{RootHash: d.RootHash, Shards: d.Hashes})
	for b, ok := range adoptable {
		d.Changed[b] = !ok
	}
	d.Reused = reused
	return d
}
