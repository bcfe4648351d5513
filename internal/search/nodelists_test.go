package search

// The slice-taking forms of SLCAPacked and ELCAPacked, over node lists of
// one finalized document, which the tests state their cases in.

import (
	"extract/internal/index"
	"extract/xmltree"
)

// SLCA returns the Smallest Lowest Common Ancestors of the given keyword
// match lists: nodes whose subtree contains at least one match from every
// list and none of whose proper descendants does. Lists must be sorted in
// document order and hold elements of one finalized document (index posting
// lists do). The result is in document order. It fills the columns of the
// lists' document on every call (columnsOf).
func SLCA(lists ...[]*xmltree.Node) []*xmltree.Node {
	ix := columnsOf(lists)
	if ix == nil {
		return nil
	}
	return SLCAPacked(ix, packLists(lists)...)
}

// packLists packs document-ordered node lists for the packed entry points.
func packLists(lists [][]*xmltree.Node) []*index.PostingList {
	packed := make([]*index.PostingList, len(lists))
	for i, l := range lists {
		packed[i] = index.PackNodes(l)
	}
	return packed
}

// columnsOf returns an index of the document the lists' nodes belong to
// that holds nothing but its columns, for the slice-taking entry points; nil
// when there is no list or some list is empty (there are no LCAs then).
func columnsOf(lists [][]*xmltree.Node) *index.Index {
	if len(lists) == 0 {
		return nil
	}
	for _, l := range lists {
		if len(l) == 0 {
			return nil
		}
	}
	root := lists[0][0].Root()
	nodes := make([]*xmltree.Node, 0, root.NodeCount())
	root.Walk(func(n *xmltree.Node) bool {
		nodes = append(nodes, n)
		return true
	})
	return index.FromParts(xmltree.AdoptFinalized(nodes), nil)
}

// ELCA returns the Exclusive Lowest Common Ancestors of the keyword match
// lists: nodes that witness every keyword even after excluding the matches
// lying under descendant nodes that themselves witness every keyword (the
// XRank semantics). Every SLCA is an ELCA; ELCA additionally surfaces
// ancestors with their own, exclusive evidence. Lists must be sorted in
// document order (index posting lists are) and hold elements of one
// finalized document; a node repeated within one list counts as that many
// matches. The result is in document order. Like SLCA, it fills the columns
// of the lists' document on every call.
func ELCA(lists ...[]*xmltree.Node) []*xmltree.Node {
	ix := columnsOf(lists)
	if ix == nil {
		return nil
	}
	elcas, _ := ELCAPacked(ix, packLists(lists)...)
	return elcas
}
