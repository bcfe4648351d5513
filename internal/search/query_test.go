package search

import (
	"reflect"
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
		got := ParseQuery(c.in)
		var toks [][]string
		for _, term := range got {
			toks = append(toks, term.Tokens)
		}
		if !reflect.DeepEqual(toks, c.want) {
			t.Errorf("ParseQuery(%q) = %v, want %v", c.in, toks, c.want)
		}
	}
	// Phrase flag.
	terms := ParseQuery(`"two words" single`)
	if !terms[0].IsPhrase() || terms[1].IsPhrase() {
		t.Errorf("phrase flags wrong: %v", terms)
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
	results, err := e.Search(`"brook brothers" texas`)
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
	results, err = e.Search(`brook brothers texas`)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 3 {
		t.Errorf("unquoted results = %d, want 3", len(results))
	}
	// Matches are keyed by the term string.
	ph, err := e.Search(`"brook brothers"`)
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
	results, err := e.Search(`"world hello"`)
	if err != nil || len(results) != 0 {
		t.Errorf("reversed phrase matched: %v %d", err, len(results))
	}
	results, err = e.Search(`"hello world"`)
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
