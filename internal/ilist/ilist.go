// Package ilist builds eXtract's Snippet Information List (paper §2): the
// ranked list of the most significant information in a query result that
// the snippet should try to cover. In order:
//
//  1. the query keywords (self-explanatory relevance),
//  2. the names of entities involved in the result (self-containment, §2.1),
//  3. the key of the query result — the key attribute value of the result's
//     return entity (distinguishability, §2.2),
//  4. the dominant features in decreasing dominance score
//     (representativeness, §2.3).
//
// Duplicates are folded case-insensitively: for the paper's running example
// the list is exactly "Texas, apparel, retailer, clothes, store, Brook
// Brothers, Houston, outwear, man, casual, suit, woman" (Figure 3).
package ilist

import (
	"slices"
	"strings"
	"sync"
	"unicode"
	"unicode/utf8"

	"extract/internal/classify"
	"extract/internal/features"
	"extract/internal/index"
	"extract/internal/keys"
	"extract/xmltree"
)

// Kind says which goal an IList item serves.
type Kind uint8

const (
	// Keyword items are the query's keywords.
	Keyword Kind = iota
	// EntityName items are names of entities in the result.
	EntityName
	// ResultKey is the key value of the result's return entity.
	ResultKey
	// DominantFeature items are dominant feature values.
	DominantFeature
)

// String names the kind.
func (k Kind) String() string {
	switch k {
	case Keyword:
		return "keyword"
	case EntityName:
		return "entity"
	case ResultKey:
		return "key"
	case DominantFeature:
		return "feature"
	default:
		return "invalid"
	}
}

// Item is one entry of the IList.
type Item struct {
	Kind Kind
	// Text is the information to surface: the keyword, entity label, key
	// value or feature value.
	Text string
	// Feature identifies the exact (e, a, v) for ResultKey and
	// DominantFeature items, and FeatureID is its id in the Stats the list
	// was built from (features.Stats.InstancesOf, FeatureSyms).
	Feature   features.Feature
	FeatureID int32
	// Score is the dominance score for DominantFeature items, zero
	// otherwise (those items rank by construction order, not score).
	Score float64
}

// IList is the ranked snippet information list of one query result.
type IList struct {
	Items []Item

	// ReturnEntities are the labels identified as the result's return
	// entities (search targets), most important first.
	ReturnEntities []string
	// KeyAttr and KeyValue describe the result key, when one was found.
	KeyAttr  string
	KeyValue string
}

// Build assembles the IList of one query result.
//
// keywords are the tokenized query; cls and km were computed on the corpus;
// stats MUST have been collected on this result. Build visits no node of the
// result but the first instance of a return entity (for its key): entity
// names, their first instances and the label facts the return-entity
// heuristics need were all recorded by the collection pass. root, the
// result's tree, is not read; the benchmark's per-layer probe passes it.
func Build(root *xmltree.Node, keywords []string, cls *classify.Classification,
	km *keys.Keys, stats *features.Stats) *IList {

	return BuildInto(&IList{}, keywords, cls, km, stats)
}

// BuildInto is Build filling il, whose items and return entities are
// overwritten in place and grown only when they are short, and returns it: a
// caller that keeps no list (the served snippet path, core.Generator) builds
// into scratch of its own and allocates nothing once it has grown to the
// lists it sees. Empty il before pooling it (Reset): its strings are the
// corpus's.
func BuildInto(il *IList, keywords []string, cls *classify.Classification,
	km *keys.Keys, stats *features.Stats) *IList {

	dominant := stats.Dominant()
	labels := stats.EntityLabels()
	il.Reset()
	il.Items = slices.Grow(il.Items, len(keywords)+len(labels)+1+len(dominant))
	sc := scratches.Get().(*scratch)
	defer sc.release()
	add := func(it Item) bool {
		if !sc.admit(strings.TrimSpace(it.Text)) {
			return false
		}
		il.Items = append(il.Items, it)
		return true
	}

	// 1. Query keywords.
	for _, kw := range keywords {
		add(Item{Kind: Keyword, Text: kw})
	}

	// 2. Entity names present in the result, alphabetically.
	sc.labels = append(sc.labels, labels...)
	slices.Sort(sc.labels)
	for _, l := range sc.labels {
		add(Item{Kind: EntityName, Text: l})
	}

	// 3. Result key of the return entity.
	il.ReturnEntities = returnEntities(sc, il.ReturnEntities, keywords, stats)
	for _, re := range il.ReturnEntities {
		inst := stats.EntityInstances(slices.Index(labels, re))[0]
		attr, key, ok := keyNode(km, cls, stats, inst)
		if !ok || key < 0 || stats.Node(key).TextValue() == "" {
			continue
		}
		// The key attribute hangs off inst through connection nodes only,
		// so inst owns it and the collection pass counted it.
		id, ok := stats.FeatureOf(inst, key)
		if !ok {
			continue
		}
		il.KeyAttr, il.KeyValue = attr, stats.Node(key).TextValue()
		add(Item{Kind: ResultKey, Text: il.KeyValue, Feature: stats.Feature(id), FeatureID: id})
		break // one key identifies the result
	}

	// 4. Dominant features by decreasing dominance score.
	for _, d := range dominant {
		add(Item{Kind: DominantFeature, Text: d.Feature.Value, Feature: d.Feature, FeatureID: d.ID, Score: d.Score})
	}
	return il
}

// keyNode is km.KeyNodeOf for the entity instance at position inst, with the
// key node's position in the result's space (-1 for none) — a descendant of
// inst, in inst's part. The document root has a copy in every part of a
// space, and its attribute children are spread over them: searched in part
// order, which is document order.
func keyNode(km *keys.Keys, cls *classify.Classification, stats *features.Stats, inst int32) (string, int32, bool) {
	n := stats.Node(inst)
	attr, node, ok := km.KeyNodeOf(cls, n)
	if w, _, _ := stats.Space(); node == nil && ok && inst == 0 && w != nil {
		for i, ix := range w.Parts()[1:] {
			if _, node, _ := km.KeyNodeOf(cls, ix.Document().Root); node != nil {
				return attr, w.Global(i+1, node.Start), ok
			}
		}
	}
	if node == nil {
		return attr, -1, ok
	}
	return attr, inst + node.Start - n.Start, ok
}

// Reset empties il, keeping the room its items and return entities have,
// and drops every string it held.
func (il *IList) Reset() {
	clear(il.Items)
	clear(il.ReturnEntities)
	*il = IList{Items: il.Items[:0], ReturnEntities: il.ReturnEntities[:0]}
}

// returnEntities applies the paper's heuristics: an entity label is a
// return entity if its name matches a keyword or one of its attribute names
// (observed on instances in this result) matches a keyword. If none
// qualifies, the highest entities in the result — instances without entity
// ancestors — are the default. Name matches come in the order the labels
// first occur; attribute-name matches in the order of the first instance
// that has a matching attribute child. They are appended to out, which is
// empty.
func returnEntities(sc *scratch, out []string, keywords []string, stats *features.Stats) []string {
	for _, k := range keywords {
		sc.lower = append(sc.lower, strings.ToLower(k))
	}
	tokenHit := func(label string) (hit bool) {
		index.EachTokenIn(label, &sc.tok, func(t string) bool {
			hit = slices.Contains(sc.lower, t)
			return !hit
		})
		return hit
	}

	for _, l := range stats.EntityLabels() {
		if tokenHit(l) {
			out = append(out, l)
		}
	}
	byName := len(out)

	// Per entity label, the earliest instance with a matching attribute
	// child (the pairs are a handful: one per distinct entity/attribute
	// label combination in the result).
	for _, p := range stats.EntityAttrs() {
		if !tokenHit(p.Attr) {
			continue
		}
		if i := slices.IndexFunc(sc.byAttr, func(m attrMatch) bool { return m.entity == p.Entity }); i < 0 {
			sc.byAttr = append(sc.byAttr, attrMatch{p.Entity, p.First})
		} else if p.First < sc.byAttr[i].first {
			sc.byAttr[i].first = p.First
		}
	}
	slices.SortFunc(sc.byAttr, func(a, b attrMatch) int { return a.first - b.first })
	for _, m := range sc.byAttr {
		if !slices.Contains(out[:byName], m.entity) {
			out = append(out, m.entity)
		}
	}
	if len(out) > 0 {
		return out
	}
	return stats.AppendHighestEntities(out)
}

// scratch is Build's working state, pooled, so a list allocates what it
// returns and nothing per item: the texts admitted so far, the sorted entity
// labels, the lower-cased keywords and the attribute-name matches.
type scratch struct {
	keys          []string // the admitted texts, in order
	labels, lower []string
	tok           []byte      // returnEntities' token buffer (index.EachTokenIn)
	byAttr        []attrMatch // returnEntities' attribute-name matches
}

// attrMatch is an entity label and the earliest instance of it with an
// attribute child whose label holds a keyword.
type attrMatch struct {
	entity string
	first  int
}

var scratches = sync.Pool{New: func() any { return new(scratch) }}

// keepItems bounds what a pooled scratch keeps: past it, a list's texts are
// garbage with it.
const keepItems = 1 << 12

// admit reports whether text is non-empty and equal to no admitted text
// under strings.ToLower, and admits it if so. An IList holds tens of items,
// so the admitted texts are scanned, compared in their lower-case form rune
// by rune (sameLower): none is lower-cased into a new string.
func (sc *scratch) admit(text string) bool {
	if text == "" || slices.ContainsFunc(sc.keys, func(k string) bool { return sameLower(text, k) }) {
		return false
	}
	sc.keys = append(sc.keys, text)
	return true
}

// release empties the scratch, dropping every string it holds — a pooled
// scratch must keep no corpus reachable — and pools it.
func (sc *scratch) release() {
	if len(sc.keys) > keepItems {
		return
	}
	clear(sc.keys)
	clear(sc.labels)
	clear(sc.lower)
	clear(sc.byAttr)
	sc.keys, sc.labels, sc.lower, sc.byAttr = sc.keys[:0], sc.labels[:0], sc.lower[:0], sc.byAttr[:0]
	scratches.Put(sc)
}

// sameLower reports strings.ToLower(a) == strings.ToLower(b) without
// building either: the two agree exactly when their runes agree one by one
// after unicode.ToLower. Two ASCII bytes are compared as they stand, lower-
// cased by arithmetic; a rune is decoded only where either string has a
// byte that is not ASCII (a non-ASCII rune may still lower to an ASCII one:
// the Kelvin sign to k).
func sameLower(a, b string) bool {
	for len(a) > 0 && len(b) > 0 {
		if ca, cb := a[0], b[0]; ca|cb < utf8.RuneSelf {
			if ca != cb && lowerASCII(ca) != lowerASCII(cb) {
				return false
			}
			a, b = a[1:], b[1:]
			continue
		}
		ra, na := utf8.DecodeRuneInString(a)
		rb, nb := utf8.DecodeRuneInString(b)
		if ra != rb && unicode.ToLower(ra) != unicode.ToLower(rb) {
			return false
		}
		a, b = a[na:], b[nb:]
	}
	return len(a) == len(b)
}

// lowerASCII lower-cases an ASCII letter and returns any other byte as it is.
func lowerASCII(c byte) byte {
	if 'A' <= c && c <= 'Z' {
		return c + 'a' - 'A'
	}
	return c
}

// Texts returns the item texts in rank order.
func (il *IList) Texts() []string {
	out := make([]string, len(il.Items))
	for i, it := range il.Items {
		out[i] = it.Text
	}
	return out
}

// String joins the item texts with commas, like the paper's Figure 3.
func (il *IList) String() string { return strings.Join(il.Texts(), ", ") }

// Len returns the number of items.
func (il *IList) Len() int { return len(il.Items) }
