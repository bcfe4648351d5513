package extract

import (
	"testing"
)

const rankCorpus = `
<library>
  <book>
    <title>gopher handbook</title>
    <topic>gopher</topic>
  </book>
  <book>
    <title>animal atlas</title>
    <chapters><chapter><section><note>gopher</note></section></chapter></chapters>
  </book>
</library>`

func TestQueryWithRanking(t *testing.T) {
	c, err := LoadString(rankCorpus)
	if err != nil {
		t.Fatal(err)
	}
	plain, err := c.Search("gopher")
	if err != nil || len(plain) != 2 {
		t.Fatalf("plain: %v %d", err, len(plain))
	}
	ranked, err := c.Search("gopher", WithRanking())
	if err != nil || len(ranked) != 2 {
		t.Fatalf("ranked: %v %d", err, len(ranked))
	}
	// The shallow match outranks the deep one.
	top := must(ranked[0].Root()).ChildElement("title").TextValue()
	if top != "gopher handbook" {
		t.Errorf("top ranked = %q", top)
	}
	if ranked[0].Score() <= ranked[1].Score() {
		t.Errorf("scores = %f, %f", ranked[0].Score(), ranked[1].Score())
	}
	if plain[0].Score() != 0 {
		t.Errorf("unranked score = %f, want 0", plain[0].Score())
	}
}

func TestQueryWithPhrase(t *testing.T) {
	c, err := LoadString(`
<retailers>
  <retailer><name>Brook Brothers</name><state>Texas</state></retailer>
  <retailer><name>Brothers Brook</name><state>Texas</state></retailer>
</retailers>`)
	if err != nil {
		t.Fatal(err)
	}
	hits, err := c.Query(`"Brook Brothers" texas`, 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(hits) != 1 {
		t.Fatalf("phrase hits = %d, want 1", len(hits))
	}
	if hits[0].Snippet.ResultKey() != "Brook Brothers" {
		t.Errorf("key = %q", hits[0].Snippet.ResultKey())
	}
	// Unquoted finds both.
	hits, err = c.Query(`Brook Brothers texas`, 4)
	if err != nil || len(hits) != 2 {
		t.Fatalf("unquoted hits = %d (%v)", len(hits), err)
	}
}
