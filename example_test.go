package extract_test

import (
	"fmt"
	"log"
	"os"
	"strings"
	"time"

	"extract"
	"extract/xmltree"
)

const libraryXML = `
<library>
  <book><title>The Art of Indexing</title><author>Ada Stone</author><topic>databases</topic></book>
  <book><title>Trees Everywhere</title><author>Ben Rivera</author><topic>databases</topic></book>
</library>`

// Loading a corpus analyzes it once: entities, attributes, keys, index.
func ExampleLoadString() {
	corpus, err := extract.LoadString(libraryXML)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(corpus.Stats().Entities)
	key, _ := corpus.EntityKey("book")
	fmt.Println(key)
	// Output:
	// [book]
	// title
}

// Query returns each result with a bounded snippet: the result's key plus
// as much of the ranked information list as fits.
func ExampleCorpus_Query() {
	corpus, err := extract.LoadString(libraryXML)
	if err != nil {
		log.Fatal(err)
	}
	hits, err := corpus.Query("Ada databases", 3)
	if err != nil {
		log.Fatal(err)
	}
	for _, h := range hits {
		fmt.Println(h.Snippet.ResultKey())
		fmt.Println(h.Snippet.Inline())
	}
	// Output:
	// The Art of Indexing
	// book(title:"The Art of Indexing", author:"Ada Stone", topic:"databases")
}

// Phrase terms in double quotes must match consecutively in one value.
func ExampleCorpus_Search_phrase() {
	corpus, err := extract.LoadString(libraryXML)
	if err != nil {
		log.Fatal(err)
	}
	exact, _ := corpus.Search(`"Ada Stone"`)
	reversed, _ := corpus.Search(`"Stone Ada"`)
	fmt.Println(len(exact), len(reversed))
	// Output:
	// 1 0
}

// WithMaxResults bounds the answer and, under SLCA semantics, terminates
// evaluation early: the scan stops once the first n results are provable.
// The bounded answer is always the document-order prefix of the unbounded
// one — the option trades work, never correctness. On sharded corpora every
// shard evaluates under the bound, and the merge cuts the concatenation of
// their answers at n.
func ExampleWithMaxResults() {
	corpus, err := extract.LoadString(libraryXML, extract.WithShards(2))
	if err != nil {
		log.Fatal(err)
	}
	all, _ := corpus.Search("databases")
	first, _ := corpus.Search("databases", extract.WithMaxResults(1))
	fmt.Println(len(all), len(first))
	fmt.Println(first[0].XML() == all[0].XML())
	// Output:
	// 2 1
	// true
}

// Corpora built with the FromDocument* constructors take the same
// serving-layer load options as the loaders — here the worker-pool size and
// the query-cache budget.
func ExampleFromDocument() {
	doc, err := xmltree.Parse(strings.NewReader(libraryXML))
	if err != nil {
		log.Fatal(err)
	}
	// 2 workers, a 1 MiB query cache
	corpus := extract.FromDocument(doc, nil, extract.WithWorkers(2), extract.WithQueryCache(1<<20))
	defer corpus.Close()

	hits, err := corpus.Query("databases", 4)
	if err != nil {
		log.Fatal(err)
	}
	stats, ok := corpus.QueryCacheStats()
	fmt.Println(len(hits), ok, stats.Capacity)
	// Output:
	// 2 true 1048576
}

// Every corpus serves queries through a cache; repeating a query answers
// from it, and QueryCacheStats shows the counters.
func ExampleCorpus_QueryCacheStats() {
	corpus, err := extract.LoadString(libraryXML)
	if err != nil {
		log.Fatal(err)
	}
	defer corpus.Close()
	for i := 0; i < 3; i++ {
		if _, err := corpus.Query("Ada databases", 3); err != nil {
			log.Fatal(err)
		}
	}
	stats, _ := corpus.QueryCacheStats()
	fmt.Printf("misses=%d hits=%d entries=%d\n", stats.Misses, stats.Hits, stats.Entries)
	// Output:
	// misses=1 hits=2 entries=1
}

// Reload swaps freshly analyzed data into a serving corpus — the online
// index-refresh path. Queries in flight finish against the old data; the
// query cache is invalidated in the same step.
func ExampleCorpus_Reload() {
	corpus, err := extract.LoadString(libraryXML)
	if err != nil {
		log.Fatal(err)
	}
	defer corpus.Close()
	hits, _ := corpus.Query("databases", 3)
	fmt.Println(len(hits), "results")

	updated, err := extract.LoadString(`
<library>
  <book><title>The Art of Indexing</title><author>Ada Stone</author><topic>databases</topic></book>
  <book><title>Trees Everywhere</title><author>Ben Rivera</author><topic>databases</topic></book>
  <book><title>Snippets at Scale</title><author>Cleo Park</author><topic>databases</topic></book>
</library>`)
	if err != nil {
		log.Fatal(err)
	}
	corpus.Reload(updated)
	hits, _ = corpus.Query("databases", 3)
	fmt.Println(len(hits), "results")
	// Output:
	// 2 results
	// 3 results
}

// ReloadDelta refreshes a serving corpus from changed XML incrementally:
// shards whose entities did not change are adopted in place, so refresh
// cost tracks the edit, not the corpus size. Answers are byte-identical
// to a full fresh load either way.
func ExampleCorpus_ReloadDelta() {
	corpus, err := extract.LoadString(libraryXML, extract.WithShards(2))
	if err != nil {
		log.Fatal(err)
	}
	defer corpus.Close()

	// The same library with one book's topic edited: of the two shards
	// (one per book), only the second changed.
	edited := strings.Replace(libraryXML, "<topic>databases</topic></book>\n</library>",
		"<topic>forests</topic></book>\n</library>", 1)
	stats, err := corpus.ReloadDelta(strings.NewReader(edited), extract.WithShards(2))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("%s reload: %d of %d shards rebuilt\n", stats.Mode(), stats.Rebuilt, stats.Shards)
	hits, _ := corpus.Query("forests", 3)
	fmt.Println(len(hits), "results")
	// Output:
	// delta reload: 1 of 2 shards rebuilt
	// 1 results
}

// A snapshot directory persists the analyzed corpus as packed images plus
// a manifest of content hashes; loading one re-analyzes nothing, and
// reloading from one decodes only the images that changed.
func ExampleCorpus_SaveSnapshot() {
	corpus, err := extract.LoadString(libraryXML, extract.WithShards(2))
	if err != nil {
		log.Fatal(err)
	}
	defer corpus.Close()

	dir, err := os.MkdirTemp("", "library-*.xtsnap")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)
	if err := corpus.SaveSnapshot(dir); err != nil {
		log.Fatal(err)
	}

	served, err := extract.LoadSnapshot(dir)
	if err != nil {
		log.Fatal(err)
	}
	defer served.Close()
	fmt.Println(served.Shards(), "shards")
	hits, _ := served.Query("databases", 3)
	fmt.Println(len(hits), "results")
	// Output:
	// 2 shards
	// 2 results
}

// Every query records per-stage latency histograms; QueryLatencies reads
// them back. Admission and the cache probe see every query, while
// dispatch, eval and snippet run only when a response is computed — so
// after one miss and one hit, the compute stages have seen exactly one
// query.
func ExampleCorpus_QueryLatencies() {
	corpus, err := extract.LoadString(libraryXML)
	if err != nil {
		log.Fatal(err)
	}
	defer corpus.Close()
	for i := 0; i < 2; i++ { // one miss, one hit
		if _, err := corpus.Query("Ada databases", 3); err != nil {
			log.Fatal(err)
		}
	}
	for _, s := range corpus.QueryLatencies() {
		fmt.Printf("%s:%d\n", s.Stage, s.Count) // s.P99, s.Max etc. carry the latencies
	}
	// Output:
	// total:2
	// admission:2
	// cache:2
	// dispatch:1
	// eval:1
	// snippet:1
}

// WithSlowQueryLog reports every query over a threshold with a
// sanitized record: tokenized keywords and a per-stage breakdown, never
// the raw query string. A 1ns threshold here makes every query "slow".
func ExampleWithSlowQueryLog() {
	corpus, err := extract.LoadString(libraryXML,
		extract.WithSlowQueryLog(time.Nanosecond, func(q extract.SlowQuery) {
			_, computed := q.Stages["eval"]
			fmt.Println(q.Keywords, q.Cache, q.Results, computed)
		}))
	if err != nil {
		log.Fatal(err)
	}
	defer corpus.Close()
	if _, err := corpus.Query("Ada, DATABASES!", 3); err != nil {
		log.Fatal(err)
	}
	// Output:
	// [ada databases] miss 1 true
}

// The IList (Snippet Information List) ranks what a snippet should show:
// keywords, entity names, the result key, then dominant features.
func ExampleSnippet_IList() {
	corpus, err := extract.LoadString(libraryXML)
	if err != nil {
		log.Fatal(err)
	}
	hits, err := corpus.Query("databases book", 8)
	if err != nil || len(hits) == 0 {
		log.Fatal(err)
	}
	for _, item := range hits[0].Snippet.IList() {
		fmt.Println(item)
	}
	// Output:
	// databases
	// book
	// The Art of Indexing
	// Ada Stone
}
