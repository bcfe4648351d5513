// Command extract runs the eXtract pipeline from the command line: load an
// XML database, evaluate a keyword query (or an XPath selection), and print
// a snippet for every result within the size bound.
//
// Usage:
//
//	extract -data retailers.xml [-dtd retailers.dtd] -query "Texas apparel retailer" [-bound 10]
//	extract -data retailers.xml [-shards 4] -savesnapshot retailers.xtsnap
//	                           # build a snapshot directory, ready for
//	                           # extractd (-data, or the distributed
//	                           # -shard-server / -router tier) whatever
//	                           # the shard count
//	extract -snapshot retailers.xtsnap -query "store texas"
//	extract -data retailers.xml -xpath "//store[city='Houston']" -query houston
//	extract -data retailers.xml -stats
//
// Flags:
//
//	-data      XML database file
//	-snapshot  snapshot directory to load instead of -data
//	-shards    partition the corpus into up to N index shards (default 1)
//	-savesnapshot  write the corpus as a snapshot directory
//	-dtd       optional DTD file for entity classification
//	-query     keyword query (double quotes inside mark phrases)
//	-xpath     select results by XPath instead of keyword search
//	-bound     snippet size bound in edges (default 10)
//	-max       maximum number of results to show (default 10)
//	-rank      order results by relevance
//	-elca      use ELCA query semantics instead of SLCA
//	-trim      build XSeek-style trimmed results instead of full subtrees
//	-exact     use exact (branch-and-bound) instance selection
//	-ilist     also print each result's IList
//	-result    also print each full result tree
//	-stats     print corpus statistics
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"extract"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is main with injectable I/O, so the CLI is testable end to end.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("extract", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		dataPath  = fs.String("data", "", "XML database file")
		snapPath  = fs.String("snapshot", "", "snapshot directory to load instead of -data")
		saveSnap  = fs.String("savesnapshot", "", "write the corpus as a snapshot directory (one image per shard; -shards is optional)")
		shards    = fs.Int("shards", 1, "partition the corpus into up to N index shards (1: the document is the one shard)")
		dtdPath   = fs.String("dtd", "", "optional DTD file")
		query     = fs.String("query", "", "keyword query (quotes mark phrases)")
		xpathExpr = fs.String("xpath", "", "select results by XPath instead of keyword search")
		ranked    = fs.Bool("rank", false, "order results by relevance")
		bound     = fs.Int("bound", 10, "snippet size bound (edges)")
		maxHits   = fs.Int("max", 10, "maximum results to show")
		useELCA   = fs.Bool("elca", false, "ELCA semantics")
		trim      = fs.Bool("trim", false, "XSeek-style trimmed results")
		exact     = fs.Bool("exact", false, "exact instance selection")
		showIList = fs.Bool("ilist", false, "print ILists")
		showTree  = fs.Bool("result", false, "print full result trees")
		stats     = fs.Bool("stats", false, "print corpus statistics")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}

	if *dataPath == "" && *snapPath == "" {
		fmt.Fprintln(stderr, "extract: -data or -snapshot is required")
		fs.Usage()
		return 2
	}
	var corpus *extract.Corpus
	var err error
	if *snapPath != "" {
		corpus, err = extract.LoadSnapshot(*snapPath)
	} else {
		var opts []extract.Option
		if *dtdPath != "" {
			opts = append(opts, extract.WithDTDFile(*dtdPath))
		}
		opts = append(opts, extract.WithShards(*shards))
		corpus, err = extract.LoadFile(*dataPath, opts...)
	}
	if err != nil {
		fmt.Fprintln(stderr, "extract:", err)
		return 1
	}
	if *saveSnap != "" {
		if err := corpus.SaveSnapshot(*saveSnap); err != nil {
			fmt.Fprintln(stderr, "extract:", err)
			return 1
		}
		fmt.Fprintf(stderr, "extract: wrote snapshot %s (%d shards)\n", *saveSnap, corpus.Shards())
		if *query == "" && *xpathExpr == "" && !*stats {
			return 0
		}
	}

	if *stats {
		printStats(stdout, corpus)
		if *query == "" && *xpathExpr == "" {
			return 0
		}
	}
	if *query == "" && *xpathExpr == "" {
		fmt.Fprintln(stderr, "extract: -query or -xpath is required")
		return 2
	}

	var results []*extract.Result
	if *xpathExpr != "" {
		results, err = corpus.XPath(*xpathExpr)
		if err == nil && *maxHits > 0 && len(results) > *maxHits {
			results = results[:*maxHits]
		}
	} else {
		var sopts []extract.SearchOption
		if *useELCA {
			sopts = append(sopts, extract.WithELCA())
		}
		if *trim {
			sopts = append(sopts, extract.WithTrimmedResults())
		}
		if *ranked {
			sopts = append(sopts, extract.WithRanking())
		}
		if *maxHits > 0 {
			sopts = append(sopts, extract.WithMaxResults(*maxHits))
		}
		results, err = corpus.Search(*query, sopts...)
	}
	if err != nil {
		fmt.Fprintln(stderr, "extract:", err)
		return 1
	}
	if len(results) == 0 {
		fmt.Fprintln(stdout, "no results")
		return 0
	}
	var snipOpts []extract.SnippetOption
	if *exact {
		snipOpts = append(snipOpts, extract.WithExactSelection())
	}
	for i, r := range results {
		s, err := corpus.Snippet(r, *query, *bound, snipOpts...)
		if err != nil {
			fmt.Fprintln(stderr, "extract:", err)
			return 1
		}
		fmt.Fprintf(stdout, "--- result %d (size %d edges", i+1, r.Size())
		if key := s.ResultKey(); key != "" {
			fmt.Fprintf(stdout, ", key %q", key)
		}
		fmt.Fprintf(stdout, ") ---\n")
		if *showIList {
			fmt.Fprintf(stdout, "IList: %s\n", strings.Join(s.IList(), ", "))
			if skipped := s.Skipped(); len(skipped) > 0 {
				fmt.Fprintf(stdout, "did not fit: %s\n", strings.Join(skipped, ", "))
			}
		}
		fmt.Fprintf(stdout, "snippet (%d edges):\n%s", s.Edges(), s.Render())
		if *showTree {
			tree, err := r.Render()
			if err != nil {
				fmt.Fprintln(stderr, "extract:", err)
				return 1
			}
			fmt.Fprintf(stdout, "full result:\n%s", tree)
		}
	}
	return 0
}

func printStats(w io.Writer, c *extract.Corpus) {
	s := c.Stats()
	fmt.Fprintf(w, "nodes:       %d\n", s.Nodes)
	fmt.Fprintf(w, "elements:    %d\n", s.Elements)
	fmt.Fprintf(w, "max depth:   %d\n", s.MaxDepth)
	fmt.Fprintf(w, "keywords:    %d\n", s.DistinctKeywords)
	fmt.Fprintf(w, "entities:    %s\n", strings.Join(s.Entities, ", "))
	fmt.Fprintf(w, "attributes:  %s\n", strings.Join(s.Attributes, ", "))
	fmt.Fprintf(w, "connections: %s\n", strings.Join(s.Connections, ", "))
	for _, e := range s.Entities {
		if attr, ok := c.EntityKey(e); ok {
			fmt.Fprintf(w, "key(%s) = %s\n", e, attr)
		}
	}
}
