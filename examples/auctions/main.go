// Auctions: snippets over a deeper, more heterogeneous schema (XMark-like),
// generated programmatically. Demonstrates snippet generation at scale:
// result trees with hundreds of edges summarize into ten, and the snippet
// generator also works for result trees produced by an external search
// engine via SnippetForTree.
//
//	go run ./examples/auctions
package main

import (
	"fmt"
	"log"
	"strings"

	"extract"
	"extract/xmltree"
)

// buildData writes an auctions corpus as XML: people with city attributes,
// auctions with bids. Values are deterministic.
func buildData(people, auctions int) string {
	var b strings.Builder
	cities := []string{"Houston", "Lyon", "Osaka", "Quito"}
	names := []string{"Ada", "Ben", "Cora", "Dev", "Eli", "Fay"}
	b.WriteString("<site><people>")
	for i := 0; i < people; i++ {
		fmt.Fprintf(&b, "<person><name>%s %d</name><email>p%d@example.net</email><city>%s</city></person>",
			names[i%len(names)], i, i, cities[i*i%len(cities)])
	}
	b.WriteString("</people><open_auctions>")
	for i := 0; i < auctions; i++ {
		fmt.Fprintf(&b, "<auction><seller>p%d@example.net</seller><price>%d</price><bids>",
			i%people, 10+i*7%500)
		for j := 0; j <= i%4; j++ {
			fmt.Fprintf(&b, "<bid><bidder>p%d@example.net</bidder><amount>%d</amount></bid>",
				(i+j)%people, 20+j*5)
		}
		b.WriteString("</bids></auction>")
	}
	b.WriteString("</open_auctions></site>")
	return b.String()
}

func main() {
	corpus, err := extract.LoadString(buildData(24, 30))
	if err != nil {
		log.Fatal(err)
	}
	st := corpus.Stats()
	fmt.Printf("corpus: %d nodes, entities %s\n\n", st.Nodes, strings.Join(st.Entities, ", "))

	// Person search: keyed by the mined email key.
	hits, err := corpus.Query("person houston", 4, extract.WithMaxResults(2))
	if err != nil {
		log.Fatal(err)
	}
	for _, h := range hits {
		fmt.Printf("person result, key %q:\n%s\n", h.Snippet.ResultKey(), h.Snippet.Render())
	}

	// Auction search with a larger bound: bids fold into the snippet.
	hits, err = corpus.Query("auction bidder amount", 8, extract.WithMaxResults(1))
	if err != nil {
		log.Fatal(err)
	}
	for _, h := range hits {
		fmt.Printf("auction result (%d edges) summarized in %d edges:\n%s\n",
			h.Result.Size(), h.Snippet.Edges(), h.Snippet.Render())
	}

	// Snippets for externally produced result trees: parse a result tree
	// that "another search engine" emitted as XML and snippet it.
	results, err := corpus.Search("auction price")
	if err != nil || len(results) == 0 {
		log.Fatal("no auction results")
	}
	xml, err := results[0].XML()
	if err != nil {
		log.Fatal(err)
	}
	external, err := xmltree.ParseString(xml)
	if err != nil {
		log.Fatal(err)
	}
	ext := corpus.SnippetForTree(external, "auction price", 5)
	fmt.Printf("external-tree snippet:\n%s", ext.Render())
}
