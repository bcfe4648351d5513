package index

import (
	"reflect"
	"slices"
	"sort"
	"strings"
	"sync"
	"sync/atomic"

	"extract/xmltree"
)

// MatchField says where on a node a keyword matched.
type MatchField uint8

const (
	// FieldLabel means the keyword matched the element's tag name.
	FieldLabel MatchField = 1 << iota
	// FieldValue means the keyword matched text directly under the element.
	FieldValue
)

// Posting is one inverted-list entry: an element node and the fields the
// keyword matched on it.
type Posting struct {
	Node   *xmltree.Node
	Fields MatchField
}

// PostingList is a packed posting list: parallel slices holding, per entry,
// the posted node's preorder position, the node itself and the matched
// fields. The struct-of-slices layout keeps the document-order positions in
// one contiguous int32 array so binary searches and merge scans in query
// evaluation touch only integers, never dereferencing nodes per probe.
// Entries are sorted by Ord (document order).
type PostingList struct {
	Ords   []int32
	Nodes  []*xmltree.Node
	Fields []MatchField
}

// Len returns the number of postings in the list.
func (pl *PostingList) Len() int {
	if pl == nil {
		return 0
	}
	return len(pl.Ords)
}

// Within returns the bounds [lo, hi) of the list's run inside the preorder
// interval [start, end]. Lists are sorted by position and a subtree is one
// interval, so the postings under a node are the run Within(n.Start, n.End),
// found by two binary searches on the packed positions.
func (pl *PostingList) Within(start, end int32) (lo, hi int) {
	if pl == nil {
		return 0, 0
	}
	return within(pl.Ords, start, end)
}

// PackNodes builds a PostingList over an ord-sorted node slice (no field
// information). Query evaluation uses it for ad-hoc match lists, e.g.
// phrase matches.
func PackNodes(nodes []*xmltree.Node) *PostingList {
	pl := &PostingList{
		Ords:  make([]int32, len(nodes)),
		Nodes: nodes,
	}
	for i, n := range nodes {
		pl.Ords[i] = int32(n.Ord)
	}
	return pl
}

// Index is the index of one document, in two sections. The inverted keyword
// index: postings target element nodes — a tag-name match posts the element
// itself, a text match posts the text node's parent element — and lists are
// sorted in document order. And the document's elements as pointer-free
// Columns, which Build fills in the pass it makes anyway and an index
// restored by FromParts derives on first use. Both sections depend on the
// document alone, so a shard adopted unchanged by a reload keeps its Index
// under whatever analysis the new generation has.
type Index struct {
	doc      *xmltree.Document
	postings map[string]*PostingList

	colsOnce sync.Once
	cols     Columns

	derivedMu sync.Mutex
	derived   [2]derivedSlot

	whole *Whole // the document as a Whole of one part

	vocabOnce sync.Once
	vocab     []string
}

// builds counts Build invocations process-wide. Index construction is the
// expensive tokenizing pass a delta reload exists to avoid, so the tests
// that pin "unchanged shards are not re-analyzed" assert on this counter.
var builds atomic.Int64

// Builds returns the number of times Build has run in this process.
func Builds() int64 { return builds.Load() }

// Build constructs the index for a document in one pass. Everything an
// element is posted for — its label's tokens, then the tokens of its text
// children in order — is posted when the element itself is visited, so the
// adds for one node are contiguous and every list comes out sorted by Ord
// and free of duplicates whatever the content model (a text child of mixed
// content may follow a whole element subtree in preorder). Each distinct
// label and value is tokenized once: the lists it posts to are memoized by
// its symbol id (Node.Sym), so a node only appends to lists.
func Build(doc *xmltree.Document) *Index {
	builds.Add(1)
	ix := &Index{doc: doc, postings: make(map[string]*PostingList)}
	ix.cols.reset(countElements(doc.Nodes()))
	var labels, values symLists
	elements := 0
	for _, n := range doc.Nodes() {
		if !n.IsElement() {
			continue
		}
		ix.cols.put(elements, n)
		elements++
		for _, list := range labels.of(ix, n.Sym, n.Label) {
			ix.add(list, n, FieldLabel)
		}
		for _, c := range n.Children {
			if !c.IsText() {
				continue
			}
			for _, list := range values.of(ix, c.Sym, c.Value) {
				ix.add(list, n, FieldValue)
			}
		}
	}
	ix.whole = NewWhole([]*Index{ix})
	return ix
}

// add posts n to list, merging repeated hits on the same node (a token
// occurring twice in one value, or in two text children, or in the label
// and a value).
func (ix *Index) add(list *PostingList, n *xmltree.Node, f MatchField) {
	if k := len(list.Nodes); k > 0 && list.Nodes[k-1] == n {
		list.Fields[k-1] |= f
		return
	}
	list.Ords = append(list.Ords, int32(n.Ord))
	list.Nodes = append(list.Nodes, n)
	list.Fields = append(list.Fields, f)
}

// symLists memoizes, for one symbol id space (labels or values), the
// posting lists of each symbol's tokens, in token order: span[id] is the
// run of lists, its start offset by one so that the zero span means "not
// tokenized yet".
type symLists struct {
	span  [][2]int32
	lists []*PostingList
}

// of returns the lists the tokens of s, whose symbol id is sym, post to,
// tokenizing s and creating its lists on the symbol's first occurrence.
// The slice is valid until the next call.
func (m *symLists) of(ix *Index, sym int32, s string) []*PostingList {
	if int(sym) >= len(m.span) {
		m.span = slices.Grow(m.span, int(sym)+1-len(m.span))[:sym+1]
	}
	sp := m.span[sym]
	if sp[0] == 0 {
		lo := len(m.lists)
		EachToken(s, func(t string) bool {
			list := ix.postings[t]
			if list == nil {
				list = &PostingList{}
				ix.postings[t] = list
			}
			m.lists = append(m.lists, list)
			return true
		})
		sp = [2]int32{int32(lo) + 1, int32(len(m.lists))}
		m.span[sym] = sp
	}
	return m.lists[sp[0]-1 : sp[1]]
}

// FromParts reconstructs an Index from already-built posting lists, the
// loader-side counterpart of Build: the packed persist format stores the
// posting arrays directly, so reopening a corpus restores them here instead
// of re-tokenizing every label and text value. Lists must be sorted by Ord
// with Nodes aligned to Ords; the maps and slices are adopted, not copied.
func FromParts(doc *xmltree.Document, postings map[string]*PostingList) *Index {
	ix := &Index{doc: doc, postings: postings}
	ix.whole = NewWhole([]*Index{ix})
	return ix
}

// Document returns the indexed document.
func (ix *Index) Document() *xmltree.Document { return ix.doc }

// Columns returns the document's elements as columns. An index made by Build
// has them already; one restored by FromParts fills them on the first call
// (one pass over the document, memoized). Safe for concurrent use; the
// columns are shared and must not be modified.
func (ix *Index) Columns() *Columns {
	ix.colsOnce.Do(func() {
		if ix.cols.slab == nil { // not Build's
			ix.cols.Fill(ix.doc.Nodes())
		}
	})
	return &ix.cols
}

// Whole returns the index's document as a Whole of one part: the position
// space of every result that is a view of it, whose positions and symbol ids
// are the document's own.
func (ix *Index) Whole() *Whole { return ix.whole }

// Interval returns the space a result tree is read in — ix's Whole, when doc
// is a view of ix's document or that document itself — and the tree's
// interval there; a nil Whole when it is not, or ix or doc is nil.
func (ix *Index) Interval(doc *xmltree.Document) (w *Whole, start, end int32) {
	if ix == nil || doc == nil || doc.Root == nil || ix.doc.ByOrd(doc.Root.Ord) != doc.Root {
		return nil, 0, 0
	}
	return ix.Whole(), doc.Root.Start, doc.Root.End
}

// Derived returns build's value for key, computing it on the first call and
// whenever no slot holds key: two slots, one for each thing the query path
// derives from the index — the statistics of the document's own root
// (features), and which label symbols are entity labels (search) — each
// keyed by the classification it was computed under, and each call replaces
// the slot its key's kind (its dynamic type) holds, so what the index keeps
// lives and dies with it and nothing needs evicting. A shard adopted across a
// reload re-derives once under the new generation's classification.
// Concurrent callers with one key share one build. The slots keep their keys
// and values reachable.
func (ix *Index) Derived(key any, build func() any) any {
	ix.derivedMu.Lock()
	defer ix.derivedMu.Unlock()
	for _, d := range ix.derived {
		if d.key == key {
			return d.val
		}
	}
	slot := 0
	for i, d := range ix.derived {
		if d.key == nil || sameKind(d.key, key) {
			slot = i
			break
		}
	}
	ix.derived[slot] = derivedSlot{key: key, val: build()}
	return ix.derived[slot].val
}

type derivedSlot struct{ key, val any }

// sameKind reports whether two derived keys are of one dynamic type: keys of
// one kind replace each other.
func sameKind(a, b any) bool { return reflect.TypeOf(a) == reflect.TypeOf(b) }

// List returns the packed posting list for a keyword (document order), or
// nil if the keyword is unindexed. The keyword is tokenized first; a
// multi-token argument returns nil. The returned list is shared and must
// not be modified.
func (ix *Index) List(keyword string) *PostingList {
	var tok string
	n := 0
	EachToken(keyword, func(t string) bool {
		tok, n = t, n+1
		return n < 2
	})
	if n != 1 {
		return nil
	}
	return ix.postings[tok]
}

// ListOf returns the posting list of a token exactly as given — no
// tokenizing, so a string Tokenize would not yield as it stands (mixed case,
// several words) has no list, just as no label or value of the document
// contains it as a token.
func (ix *Index) ListOf(token string) *PostingList { return ix.postings[token] }

// Postings returns the posting list for a keyword (document order) as a
// materialized view over the packed list. The keyword is tokenized first;
// a multi-token argument returns nil.
func (ix *Index) Postings(keyword string) []Posting {
	pl := ix.List(keyword)
	if pl == nil {
		return nil
	}
	out := make([]Posting, pl.Len())
	for i := range pl.Nodes {
		out[i] = Posting{Node: pl.Nodes[i], Fields: pl.Fields[i]}
	}
	return out
}

// Count returns the posting-list length for a keyword without materializing
// the list.
func (ix *Index) Count(keyword string) int { return ix.List(keyword).Len() }

// Nodes returns just the nodes of the posting list for keyword. The slice
// is shared with the index and must not be modified.
func (ix *Index) Nodes(keyword string) []*xmltree.Node {
	pl := ix.List(keyword)
	if pl == nil {
		return nil
	}
	return pl.Nodes
}

// DistinctKeywords returns the number of distinct indexed keywords.
func (ix *Index) DistinctKeywords() int { return len(ix.postings) }

// Vocabulary returns all indexed keywords, sorted; intended for tools and
// tests, not the hot path.
func (ix *Index) Vocabulary() []string {
	ix.vocabOnce.Do(func() {
		ix.vocab = make([]string, 0, len(ix.postings))
		for k := range ix.postings {
			ix.vocab = append(ix.vocab, k)
		}
		sort.Strings(ix.vocab)
	})
	return ix.vocab
}

// PrefixKeywords returns every indexed keyword starting with prefix
// (lowercased), in lexicographic order. The slice aliases the sorted
// vocabulary and must not be modified. A sharded corpus merges these full
// per-shard tails before ranking suggestions globally, so a keyword can
// never be lost to a local top-k cutoff.
func (ix *Index) PrefixKeywords(prefix string) []string {
	toks := Tokenize(prefix)
	if len(toks) != 1 {
		return nil
	}
	p := toks[0]
	voc := ix.Vocabulary()
	lo := sort.SearchStrings(voc, p)
	hi := lo
	for hi < len(voc) && strings.HasPrefix(voc[hi], p) {
		hi++
	}
	return voc[lo:hi]
}

// CompletePrefix returns up to k indexed keywords starting with prefix
// (lowercased), most frequent first — query autocompletion for the demo UI.
func (ix *Index) CompletePrefix(prefix string, k int) []string {
	if k <= 0 {
		return nil
	}
	tail := ix.PrefixKeywords(prefix)
	matches := append([]string(nil), tail...)
	sort.SliceStable(matches, func(i, j int) bool {
		return ix.postings[matches[i]].Len() > ix.postings[matches[j]].Len()
	})
	if len(matches) > k {
		matches = matches[:k]
	}
	return matches
}
