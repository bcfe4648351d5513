package search

import (
	"math/rand/v2"
	"reflect"
	"slices"
	"testing"

	"extract/internal/index"
)

func TestParseQuery(t *testing.T) {
	cases := []struct {
		in   string
		want [][]string
	}{
		{`texas apparel`, [][]string{{"texas"}, {"apparel"}}},
		{`"Brook Brothers" texas`, [][]string{{"brook", "brothers"}, {"texas"}}},
		{`a "b c" d`, [][]string{{"a"}, {"b", "c"}, {"d"}}},
		{`"unterminated tail`, [][]string{{"unterminated", "tail"}}},
		{`""`, nil},
		{`   `, nil},
		{`dup dup "dup"`, [][]string{{"dup"}}},
		{`"one"`, [][]string{{"one"}}},
	}
	for _, c := range cases {
		got := Parse(c.in)
		var toks [][]string
		for _, term := range got.Terms {
			toks = append(toks, term.Tokens)
		}
		if !reflect.DeepEqual(toks, c.want) {
			t.Errorf("Parse(%q) = %v, want %v", c.in, toks, c.want)
		}
	}
	// Phrase flag.
	terms := Parse(`"two words" single`).Terms
	if !terms[0].IsPhrase() || terms[1].IsPhrase() {
		t.Errorf("phrase flags wrong: %v", terms)
	}
}

// TestParseKeysAndKeywords holds a parse's Keys and Keywords to its Terms on
// random spellings — letters of both cases, a non-ASCII letter, digits,
// spaces, punctuation and quotes: a key is its term's String, the Keywords
// are the terms' tokens in order, and they are the query's tokens
// (index.Tokenize) unless a duplicate term was dropped.
func TestParseKeysAndKeywords(t *testing.T) {
	const alphabet = "aabbcC9 \"é,\""
	rng := rand.New(rand.NewPCG(1, 2))
	for range 20000 {
		b := make([]byte, rng.IntN(14))
		for i := range b {
			b[i] = alphabet[rng.IntN(len(alphabet))]
		}
		text := string(b)
		q := Parse(text)
		var tokens []string
		for i, term := range q.Terms {
			if q.Keys[i] != term.String() {
				t.Fatalf("Parse(%q): key %d = %q, term %q", text, i, q.Keys[i], term.String())
			}
			tokens = append(tokens, term.Tokens...)
		}
		if len(q.Keys) != len(q.Terms) || !slices.Equal(q.Keywords, tokens) {
			t.Fatalf("Parse(%q): keys %q, keywords %q, terms %v", text, q.Keys, q.Keywords, q.Terms)
		}
		if all := index.Tokenize(text); len(all) == len(tokens) && !slices.Equal(all, q.Keywords) {
			t.Fatalf("Parse(%q): keywords %q, tokens %q", text, q.Keywords, all)
		}
	}
}

func TestPhraseSearch(t *testing.T) {
	doc := parse(t, `
<retailers>
  <retailer><name>Brook Brothers</name><state>Texas</state></retailer>
  <retailer><name>Brothers Brook</name><state>Texas</state></retailer>
  <retailer><name>Brook</name><note>Brothers apart</note><state>Texas</state></retailer>
</retailers>`)
	e := NewEngine(doc, nil, nil, Options{DistinctAnchors: true})

	// The phrase matches only the consecutive occurrence.
	results, err := e.Search(Parse(`"brook brothers" texas`))
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 1 {
		t.Fatalf("results = %d, want 1", len(results))
	}
	if got := results[0].Root.ChildElement("name").TextValue(); got != "Brook Brothers" {
		t.Errorf("matched %q", got)
	}
	// Both tokens present but reversed or split across values: covered by
	// the unquoted query instead.
	results, err = e.Search(Parse(`brook brothers texas`))
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 3 {
		t.Errorf("unquoted results = %d, want 3", len(results))
	}
	// Matches are keyed by the term string.
	ph, err := e.Search(Parse(`"brook brothers"`))
	if err != nil || len(ph) != 1 {
		t.Fatalf("phrase-only: %v %d", err, len(ph))
	}
	if len(ph[0].Matches("brook brothers")) != 1 {
		t.Errorf("matches keys = %v", ph[0].MatchKeywords())
	}
}

func TestPhraseNoMatch(t *testing.T) {
	doc := parse(t, `<r><a>hello world</a></r>`)
	e := NewEngine(doc, nil, nil, Options{})
	results, err := e.Search(Parse(`"world hello"`))
	if err != nil || len(results) != 0 {
		t.Errorf("reversed phrase matched: %v %d", err, len(results))
	}
	results, err = e.Search(Parse(`"hello world"`))
	if err != nil || len(results) != 1 {
		t.Errorf("phrase missed: %v %d", err, len(results))
	}
}

func TestContainsSeq(t *testing.T) {
	hay := index.Tokenize("the quick brown fox")
	if !containsSeq(hay, []string{"quick", "brown"}) {
		t.Error("subsequence missed")
	}
	if containsSeq(hay, []string{"brown", "quick"}) {
		t.Error("order ignored")
	}
	if containsSeq(hay, []string{"fox", "jumps"}) {
		t.Error("overrun")
	}
	if containsSeq(nil, []string{"x"}) || containsSeq(hay, nil) {
		t.Error("empty cases")
	}
}
