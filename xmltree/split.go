package xmltree

// Splitting is how a load reaches a document without parsing all of it: the
// input is cut at the root's children, so a delta reload parses only the
// children whose bytes changed and a first load parses them concurrently.
// The splitter is the scanner itself, run over the input with one change: a
// child of the root is passed over by a light scan that only finds where it
// ends (skipChild), and its extent is recorded. Everything else — the
// prolog, the root's start and end tags, the bytes between its children,
// what follows the root — is scanned exactly as ParseBytes scans it. Each
// segment is then parsed on its own (Split.Parse) by the scanner started
// where ParseBytes is at that byte: inside the root, nothing else open. So
// the two agree: a document whose split and segment parses all succeed is
// one ParseBytes accepts, with the same nodes; and a document ParseBytes
// accepts splits and parses alike, unless its root level holds something a
// segment cannot stand for (SplitBytes returns nil).
//
// A split may also pass over stretches it is told of (SplitSkipping): a run
// of root children, and the bytes between them, whose extents a split of an
// earlier input found in equal bytes. The scan takes such a jump only where
// it lands on the run's first byte inside the root with nothing else open —
// the state the earlier scan was in there — records the run's segments and
// goes on after it; anywhere else it scans as ever. Equal bytes scanned from
// an equal state end in an equal state with equal segments, so the split is
// SplitBytes's whenever the jumps' bytes are what the caller says they are.

import (
	"bytes"
	"errors"
	"sync/atomic"
)

// errNoSplit stops the splitter at what it leaves to a whole parse.
var errNoSplit = errors.New("xmltree: the root level does not split into segments")

// Segment is one child of the root as the bytes [Start, End) of the input.
type Segment struct{ Start, End int }

// Jump is a run of the root's children, and the bytes between them, that a
// split may pass over (see SplitSkipping): [Start, End) of the input, with
// Segments its children's extents in the input. It stands for the bytes
// [From, From+End-Start) of an earlier input, where a split found the same
// children; the split keeps From for its caller and does not read it.
type Jump struct {
	Start, End, From int
	Segments         []Segment
}

// Split is a document cut at its root's children (see SplitBytes).
type Split struct {
	// Root is the root element's label, and InternalSubset the DOCTYPE
	// internal subset ("" if none).
	Root           string
	InternalSubset string
	// Segments are the root's children, in document order.
	Segments []Segment
	// Jumped are the jumps the split took, in input order: their bytes
	// were passed over, not scanned.
	Jumped []Jump

	data     []byte
	maxNodes int
	parsed   []atomic.Bool
}

// SplitBytes cuts data at its root's children without parsing them. It
// returns nil for a document it leaves to ParseBytes: one it finds
// malformed (ParseBytes reports the error), or one whose root level holds
// something a segment cannot stand for — attributes on the root, text,
// CDATA or a directive among its children, or a child the light scan does
// not delimit. data must not change while the Split is in use. It is
// SplitSkipping with no jumps: every byte is scanned.
func SplitBytes(data []byte, opts ...ParseOption) *Split {
	return SplitSkipping(data, nil, opts...)
}

// SplitSkipping is SplitBytes passing over the jumps it lands on: jumps,
// in input order and not overlapping, each a run of root children whose
// bytes equal the ones an earlier split found them in (see Jump). The prolog,
// the root's tags and whatever lies outside a jump taken are scanned, so
// Root, InternalSubset and the verdict are the input's own. When every
// jump's bytes are what it says, the split equals SplitBytes's; Jumped
// lists the jumps taken.
func SplitSkipping(data []byte, jumps []Jump, opts ...ParseOption) *Split {
	var cfg parseConfig
	for _, o := range opts {
		o(&cfg)
	}
	s := scanner{
		src:      data,
		maxNodes: cfg.maxNodes,
		names:    make(map[string]*qname),
		syms:     NewSymbols(),
		split:    true,
		jumps:    jumps,
	}
	if err := s.document(); err != nil {
		return nil
	}
	return &Split{
		Root:           s.root.Label,
		InternalSubset: s.internal,
		Segments:       s.segs,
		Jumped:         s.jumped,
		data:           data,
		maxNodes:       cfg.maxNodes,
		parsed:         make([]atomic.Bool, len(s.segs)),
	}
}

// Bytes returns segment i's source bytes, a subslice of the input.
func (sp *Split) Bytes(i int) []byte {
	seg := sp.Segments[i]
	return sp.data[seg.Start:seg.End]
}

// Between returns the source bytes before segment i and after segment i-1,
// a subslice of the input: Between(0) is the input up to the first segment
// (all of it when there is none), and Between(len(Segments)) what follows
// the last.
func (sp *Split) Between(i int) []byte {
	lo, hi := 0, len(sp.data)
	if i > 0 {
		lo = sp.Segments[i-1].End
	}
	if i < len(sp.Segments) {
		hi = sp.Segments[i].Start
	}
	return sp.data[lo:hi]
}

// Skipped returns how many input bytes the split passed over in the jumps
// it took; it scanned the others.
func (sp *Split) Skipped() int {
	n := 0
	for _, j := range sp.Jumped {
		n += j.End - j.Start
	}
	return n
}

// Parse parses segment i on its own into a detached tree: the child's
// subtree, preorder positions counted from 0 at the child, no parent — ready
// to be finalized under a root by NewDocument, which also assigns the symbol
// ids. Its nodes are the ones ParseBytes builds for the child, and no
// allocation is shared with another segment's parse. An error is the
// verdict on these bytes alone: which error ParseBytes reports for the
// document, an earlier one perhaps, only a whole parse says. Parse is safe
// for concurrent use.
func (sp *Split) Parse(i int) (*Node, error) {
	sp.parsed[i].Store(true)
	seg := sp.Segments[i]
	root := &Node{}
	s := scanner{
		src:      sp.data,
		pos:      seg.Start,
		maxNodes: sp.maxNodes,
		nodes:    make([]*Node, 0, (seg.End-seg.Start)/32+1),
		names:    make(map[string]*qname),
		syms:     NewSymbols(),
		root:     root,
		open:     []openElem{{n: root, name: &qname{}}},
		segment:  true,
	}
	if err := s.document(); err != nil {
		return nil, err
	}
	if s.pos != seg.End {
		return nil, errNoSplit
	}
	n := s.nodes[0]
	n.Parent = nil
	return n, nil
}

// CopySegment returns a copy of n's subtree, n a node of d, shaped like
// Split.Parse's output: a detached tree, preorder positions counted from 0
// at the copy of n, no parent, no symbol ids (NewDocument assigns them) and
// no Origin — nothing of the copy points into d, so d is not kept alive by
// it. Labels and values are shared; the nodes and Children slices are cut
// from chunks of the copy's own, like a scanner's for one top-level entity
// (see the retention rule in parse.go). A load copies, instead of parsing,
// a segment whose bytes the generation it replaces read.
func (d *Document) CopySegment(n *Node) *Node {
	lo := n.Ord - d.nodes[0].Ord
	run := d.nodes[lo : lo+int(n.End-n.Start)+1]
	slabs := make([][]Node, (len(run)+slabChunk-1)/slabChunk)
	for i := range slabs {
		slabs[i] = make([]Node, min(slabChunk, len(run)-i*slabChunk))
	}
	at := func(k int32) *Node { return &slabs[k/slabChunk][k%slabChunk] }
	var arena []*Node
	kids := len(run) - 1 // Children pointers still to carve
	for k, src := range run {
		c := at(int32(k))
		c.Kind, c.Label, c.Value, c.FromAttr = src.Kind, src.Label, src.Value, src.FromAttr
		c.Ord, c.Start, c.End = k, int32(k), src.End-n.Start
		m := len(src.Children)
		if m == 0 {
			continue
		}
		if m > arenaChunk/2 {
			c.Children = make([]*Node, m)
		} else {
			if m > len(arena) {
				arena = make([]*Node, min(kids, arenaChunk))
			}
			c.Children, arena = arena[:m:m], arena[m:]
		}
		kids -= m
		for j, sc := range src.Children {
			cc := at(sc.Start - n.Start)
			cc.Parent = c
			c.Children[j] = cc
		}
	}
	return at(0)
}

// Parsed reports whether segment i has been parsed.
func (sp *Split) Parsed(i int) bool { return sp.parsed[i].Load() }

// Limit returns ErrTooLarge when a document of the given node count exceeds
// the WithMaxNodes bound the split was made under.
func (sp *Split) Limit(nodes int) error {
	if sp.maxNodes > 0 && nodes > sp.maxNodes {
		return ErrTooLarge
	}
	return nil
}

// jump takes the next jump if the scan is at its first byte inside the
// root with nothing else open, and drops it otherwise: the scan has passed
// its first byte, or is not where the earlier scan was there.
func (s *scanner) jump() {
	j := s.jumps[0]
	s.jumps = s.jumps[1:]
	if s.pos == j.Start && len(s.open) == 1 {
		s.segs = append(s.segs, j.Segments...)
		s.jumped = append(s.jumped, j)
		s.pos = j.End
	}
}

// skipChild passes over the child of the root whose start tag begins at
// s.pos-1 and records its extent. The scan is light: it knows where markup
// begins and ends — quoted attribute values, comments, processing
// instructions, CDATA sections — and counts start tags against end tags,
// checking nothing (the segment's own parse does). A directive or the end of
// input stops the split.
func (s *scanner) skipChild() error {
	src := s.src
	start := s.pos - 1
	i, depth := start, 0
	for {
		if i+1 >= len(src) {
			return errNoSplit
		}
		switch src[i+1] {
		case '/':
			k := bytes.IndexByte(src[i:], '>')
			if k < 0 {
				return errNoSplit
			}
			i += k + 1
			depth--
		case '?':
			k := bytes.Index(src[i+2:], []byte("?>"))
			if k < 0 {
				return errNoSplit
			}
			i += k + 4
		case '!':
			switch {
			case bytes.HasPrefix(src[i:], []byte("<!--")):
				// A comment ends at its first "--", which must close it.
				k := bytes.Index(src[i+4:], []byte("--"))
				if k < 0 || i+k+6 >= len(src) || src[i+k+6] != '>' {
					return errNoSplit
				}
				i += k + 7
			case bytes.HasPrefix(src[i:], []byte("<![CDATA[")):
				k := bytes.Index(src[i+9:], []byte("]]>"))
				if k < 0 {
					return errNoSplit
				}
				i += k + 12
			default:
				return errNoSplit
			}
		default:
			k := tagEnd(src, i+1)
			if k < 0 {
				return errNoSplit
			}
			if src[k-1] != '/' {
				depth++
			}
			i = k + 1
		}
		if depth == 0 {
			s.segs = append(s.segs, Segment{Start: start, End: i})
			s.pos = i
			return nil
		}
		k := bytes.IndexByte(src[i:], '<')
		if k < 0 {
			return errNoSplit
		}
		i += k
	}
}

// tagEnd returns the index of the '>' that closes the start tag whose name
// begins at src[i], passing over quoted attribute values; -1 if the input
// ends first.
func tagEnd(src []byte, i int) int {
	for i < len(src) {
		switch c := src[i]; c {
		case '>':
			return i
		case '"', '\'':
			k := bytes.IndexByte(src[i+1:], c)
			if k < 0 {
				return -1
			}
			i += k + 2
		default:
			i++
		}
	}
	return -1
}
