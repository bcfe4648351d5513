package index

import (
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"unicode"

	"extract/xmltree"
)

func TestTokenize(t *testing.T) {
	cases := []struct {
		in   string
		want []string
	}{
		{"Brook Brothers", []string{"brook", "brothers"}},
		{"  Texas,  apparel;retailer ", []string{"texas", "apparel", "retailer"}},
		{"open_auctions", []string{"open", "auctions"}},
		{"ID42x", []string{"id42x"}},
		{"", nil},
		{"---", nil},
		{"Déjà vu", []string{"déjà", "vu"}},
	}
	for _, c := range cases {
		if got := Tokenize(c.in); !reflect.DeepEqual(got, c.want) {
			t.Errorf("Tokenize(%q) = %v, want %v", c.in, got, c.want)
		}
	}
}

func TestMatchesKeyword(t *testing.T) {
	if !MatchesKeyword("Brook Brothers", "brook") {
		t.Error("brook should match")
	}
	if MatchesKeyword("Brook Brothers", "bro") {
		t.Error("substring must not match")
	}
}

func buildDoc(t *testing.T) *xmltree.Document {
	t.Helper()
	doc, err := xmltree.ParseString(`
<retailer>
  <name>Brook Brothers</name>
  <store><state>Texas</state><city>Houston</city></store>
  <store><state>Texas</state><city>Austin</city></store>
</retailer>`)
	if err != nil {
		t.Fatal(err)
	}
	return doc
}

func TestBuildLookup(t *testing.T) {
	doc := buildDoc(t)
	ix := Build(doc)

	// Tag-name match.
	stores := ix.Nodes("store")
	if len(stores) != 2 || stores[0].Label != "store" {
		t.Fatalf("store postings = %v", stores)
	}
	if ix.Postings("store")[0].Fields != FieldLabel {
		t.Error("store should be a label match")
	}

	// Value match posts the parent element.
	texas := ix.Postings("texas")
	if len(texas) != 2 || texas[0].Node.Label != "state" {
		t.Fatalf("texas postings = %v", texas)
	}
	if texas[0].Fields != FieldValue {
		t.Error("texas should be a value match")
	}

	// Case-insensitive, multi-token values.
	if len(ix.Nodes("brook")) != 1 || len(ix.Nodes("brothers")) != 1 {
		t.Error("value tokens missing")
	}
	if got := ix.Nodes("BROOK"); len(got) != 1 {
		t.Error("lookup must tokenize/lowercase the query")
	}

	// Absent keyword.
	if got := ix.Nodes("nothing"); len(got) != 0 {
		t.Errorf("nothing = %v", got)
	}
	// Multi-token lookup argument is rejected.
	if got := ix.Postings("brook brothers"); got != nil {
		t.Errorf("multi-token lookup = %v", got)
	}
}

func TestDocumentOrderAndDedup(t *testing.T) {
	doc, err := xmltree.ParseString(`<a><b>x x</b><c>x</c><x/></a>`)
	if err != nil {
		t.Fatal(err)
	}
	ix := Build(doc)
	xs := ix.Postings("x")
	if len(xs) != 3 {
		t.Fatalf("x postings = %d, want 3 (b, c, x)", len(xs))
	}
	for i := 1; i < len(xs); i++ {
		if xs[i-1].Node.Ord >= xs[i].Node.Ord {
			t.Error("postings out of document order")
		}
	}
	// "x x" in one value yields one posting.
	if xs[0].Node.Label != "b" {
		t.Errorf("first x posting = %v", xs[0].Node)
	}
	// The <x/> element is a label match.
	if xs[2].Fields != FieldLabel {
		t.Errorf("fields = %v", xs[2].Fields)
	}
}

func TestLabelAndValueSameNode(t *testing.T) {
	doc, err := xmltree.ParseString(`<a><x>x</x></a>`)
	if err != nil {
		t.Fatal(err)
	}
	ix := Build(doc)
	xs := ix.Postings("x")
	if len(xs) != 1 {
		t.Fatalf("x postings = %d, want merged 1", len(xs))
	}
	if xs[0].Fields != FieldLabel|FieldValue {
		t.Errorf("fields = %v, want label|value", xs[0].Fields)
	}
}

// postings returns the number of postings in ix's lists and the length of
// the longest.
func postings(ix *Index) (total, longest int) {
	for _, kw := range ix.Vocabulary() {
		n := ix.List(kw).Len()
		total += n
		longest = max(longest, n)
	}
	return total, longest
}

func TestIndexStats(t *testing.T) {
	ix := Build(buildDoc(t))
	total, longest := postings(ix)
	if ix.DistinctKeywords() == 0 || total == 0 {
		t.Error("empty stats")
	}
	if longest < 2 {
		t.Errorf("longest = %d", longest)
	}
	voc := ix.Vocabulary()
	for i := 1; i < len(voc); i++ {
		if voc[i-1] >= voc[i] {
			t.Error("vocabulary not sorted")
		}
	}
}

// tokenizeReference is the pre-fast-path implementation, kept in tests as
// the semantic yardstick for the optimized Tokenize.
func tokenizeReference(s string) []string {
	var out []string
	var b strings.Builder
	flush := func() {
		if b.Len() > 0 {
			out = append(out, b.String())
			b.Reset()
		}
	}
	for _, r := range s {
		if unicode.IsLetter(r) || unicode.IsDigit(r) {
			b.WriteRune(unicode.ToLower(r))
		} else {
			flush()
		}
	}
	flush()
	return out
}

func TestTokenizeMatchesReference(t *testing.T) {
	cases := []string{
		"", " ", "hello", "Hello World", "a-b_c d9", "Brook Brothers",
		"çirçé ÉLAN", "x€y", "日本語 text", "MiXeD-caseTOKEN stream",
		"trailing ", " leading", "a", "A", "1234", "\xff\xfe bad utf8 \xff",
		"ascii然后unicode", "ÀÈÌ òùç", "tab\tsep\nnewline",
	}
	for _, s := range cases {
		got, want := Tokenize(s), tokenizeReference(s)
		if len(got) != len(want) {
			t.Fatalf("Tokenize(%q) = %v, want %v", s, got, want)
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("Tokenize(%q) = %v, want %v", s, got, want)
			}
		}
	}
	// And on random byte strings, including invalid UTF-8.
	r := rand.New(rand.NewSource(3))
	for trial := 0; trial < 2000; trial++ {
		b := make([]byte, r.Intn(24))
		for i := range b {
			b[i] = byte(r.Intn(256))
		}
		s := string(b)
		got, want := Tokenize(s), tokenizeReference(s)
		if fmt.Sprint(got) != fmt.Sprint(want) {
			t.Fatalf("Tokenize(%q) = %v, want %v", s, got, want)
		}
	}
}

// Mixed content puts a text child after a whole element subtree in preorder.
// Every list must still come out sorted by Ord with each node once: the
// readers binary-search them, and the persisted form refuses anything else.
func TestBuildMixedContentSortedUnique(t *testing.T) {
	doc, err := xmltree.ParseString(`<r>
	<p>red <c><d>red</d><e>blue</e></c> red</p>
	<p>green<c><d>blue</d>tail</c><d>red</d> p</p>
	<q kind="p">blue <b>red</b> blue</q>
</r>`)
	if err != nil {
		t.Fatal(err)
	}
	ix := Build(doc)
	for _, kw := range ix.Vocabulary() {
		pl := ix.List(kw)
		for i, n := range pl.Nodes {
			if int(pl.Ords[i]) != n.Ord || !n.IsElement() {
				t.Fatalf("%q entry %d: ord %d names %v", kw, i, pl.Ords[i], n)
			}
			if i > 0 && pl.Ords[i-1] >= pl.Ords[i] {
				t.Fatalf("%q = %v: not strictly increasing", kw, pl.Ords)
			}
			// The entry is exactly what the node shows: the keyword in its
			// label, in one of its own text children, or both.
			var want MatchField
			if MatchesKeyword(n.Label, kw) {
				want |= FieldLabel
			}
			for _, c := range n.Children {
				if c.IsText() && MatchesKeyword(c.Value, kw) {
					want |= FieldValue
				}
			}
			if pl.Fields[i] != want {
				t.Fatalf("%q on %v: fields %v, want %v", kw, n, pl.Fields[i], want)
			}
		}
	}
	// <p> once for "red" although two of its text children say it, around a
	// subtree that says it too.
	first := doc.Root.Children[0]
	if red := ix.Nodes("red"); len(red) != 4 || red[0] != first || red[1].Label != "d" {
		t.Errorf("red = %v", red)
	}
	// "p" is the label of two elements — one of which also says it in a
	// trailing text child — and the value of the kind attribute.
	if got := ix.Count("p"); got != 3 {
		t.Errorf("p has %d postings, want 3", got)
	}
}

// TestListAllocatesNothing: looking up a canonical token — what ranking
// does per keyword per shard — tokenizes the argument without building a
// token slice, and still rejects what is not one token.
func TestListAllocatesNothing(t *testing.T) {
	ix := Build(buildDoc(t))
	if ix.List("texas") == nil || ix.List("brook brothers") != nil || ix.List("") != nil || ix.List("BROOK") != ix.List("brook") {
		t.Fatal("List does not resolve exactly one token")
	}
	if n := testing.AllocsPerRun(100, func() { ix.List("texas") }); n != 0 {
		t.Errorf("List of a canonical token allocates %v objects", n)
	}
}

// TestEachTokenInMatchesTokenize: the lookup tokenizer yields Tokenize's
// tokens — upper-case ASCII and non-ASCII ones rebuilt in the caller's
// buffer — and, once the buffer has grown, allocates nothing.
func TestEachTokenInMatchesTokenize(t *testing.T) {
	pieces := []string{"Brook", "brothers", "HOUSTON", "Les", "Misérables", "ÉTÉ", "x9", " ", "-", "悲惨", "\xff", "İstanbul"}
	r := rand.New(rand.NewSource(3))
	var buf []byte
	for round := 0; round < 500; round++ {
		var b strings.Builder
		for n := r.Intn(6); n >= 0; n-- {
			b.WriteString(pieces[r.Intn(len(pieces))])
			if r.Intn(2) == 0 {
				b.WriteByte(' ')
			}
		}
		s := b.String()
		var got []string
		EachTokenIn(s, &buf, func(tok string) bool {
			got = append(got, strings.Clone(tok))
			return true
		})
		if want := Tokenize(s); !reflect.DeepEqual(got, want) {
			t.Fatalf("%q: EachTokenIn %q, Tokenize %q", s, got, want)
		}
	}
	text := "Brook Brothers of HOUSTON, Les Misérables"
	if n := testing.AllocsPerRun(100, func() { EachTokenIn(text, &buf, func(string) bool { return true }) }); n != 0 {
		t.Errorf("EachTokenIn allocates %v objects", n)
	}
}
