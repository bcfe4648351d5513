// Package workload generates keyword-query workloads against a corpus.
// Queries are sampled so that conjunctive evaluation is guaranteed to have
// at least one result: keywords are drawn from one subtree's labels and
// values, mixing tag keywords and value keywords in a configurable ratio.
package workload

import (
	"math/rand"
	"sort"
	"strings"

	"extract/internal/index"
	"extract/xmltree"
)

// Query is one generated keyword query.
type Query struct {
	Keywords []string
	// AnchorOrd is the preorder position of the subtree the keywords
	// were drawn from (its subtree matches all of them).
	AnchorOrd int
}

// Text joins the keywords with spaces.
func (q Query) Text() string { return strings.Join(q.Keywords, " ") }

// Config parameterizes Generate.
type Config struct {
	// Queries is the number of queries (default 10).
	Queries int
	// Keywords per query (default 3).
	Keywords int
	// TagFraction is the fraction of keywords drawn from element labels
	// rather than text values (default 0.3).
	TagFraction float64
	// MinSubtree skips anchor subtrees with fewer nodes (default 5).
	MinSubtree int

	Seed int64
}

func (c *Config) defaults() {
	if c.Queries == 0 {
		c.Queries = 10
	}
	if c.Keywords == 0 {
		c.Keywords = 3
	}
	if c.TagFraction == 0 {
		c.TagFraction = 0.3
	}
	if c.MinSubtree == 0 {
		c.MinSubtree = 5
	}
}

// Generate samples queries from the document. Each query's keywords come
// from a single random subtree, so conjunctive semantics always has that
// subtree's root as a candidate answer.
func Generate(doc *xmltree.Document, cfg Config) []Query {
	cfg.defaults()
	r := rand.New(rand.NewSource(cfg.Seed))
	nodes := doc.Nodes()
	if len(nodes) == 0 {
		return nil
	}

	var out []Query
	for attempt := 0; len(out) < cfg.Queries && attempt < cfg.Queries*20; attempt++ {
		anchor := nodes[r.Intn(len(nodes))]
		if !anchor.IsElement() || anchor.NodeCount() < cfg.MinSubtree {
			continue
		}
		var tags, values []string
		anchor.Walk(func(n *xmltree.Node) bool {
			switch {
			case n.IsElement():
				tags = append(tags, index.Tokenize(n.Label)...)
			case n.IsText():
				values = append(values, index.Tokenize(n.Value)...)
			}
			return true
		})
		tags, values = distinct(tags), distinct(values)
		if len(tags)+len(values) < cfg.Keywords {
			continue
		}
		used := map[string]bool{}
		var kws []string
		for len(kws) < cfg.Keywords {
			var pool []string
			if r.Float64() < cfg.TagFraction && len(tags) > 0 {
				pool = tags
			} else if len(values) > 0 {
				pool = values
			} else {
				pool = tags
			}
			if len(pool) == 0 {
				break
			}
			kw := pool[r.Intn(len(pool))]
			if used[kw] {
				// Dense domains may exhaust; bail out eventually.
				if len(used) >= len(tags)+len(values) {
					break
				}
				continue
			}
			used[kw] = true
			kws = append(kws, kw)
		}
		if len(kws) == cfg.Keywords {
			out = append(out, Query{Keywords: kws, AnchorOrd: anchor.Ord})
		}
	}
	return out
}

// Stream samples an endless query sequence over a fixed distinct-query
// set with Zipf-skewed popularity: queries earlier in the slice are drawn
// more often, the way live search traffic concentrates on a small head of
// repeated queries. It is the workload shape the serving layer's query
// cache is measured against (BenchmarkGateServe).
type Stream struct {
	queries []Query
	r       *rand.Rand
	zipf    *rand.Zipf
}

// NewStream builds a stream over queries with Zipf parameter s (s <= 1
// degenerates to uniform) and a deterministic source.
func NewStream(queries []Query, s float64, seed int64) *Stream {
	st := &Stream{queries: queries, r: rand.New(rand.NewSource(seed))}
	if s > 1 && len(queries) > 1 {
		st.zipf = rand.NewZipf(st.r, s, 1, uint64(len(queries)-1))
	}
	return st
}

// Next returns the next query of the stream.
func (st *Stream) Next() Query {
	if len(st.queries) == 0 {
		return Query{}
	}
	if st.zipf != nil {
		return st.queries[st.zipf.Uint64()]
	}
	return st.queries[st.r.Intn(len(st.queries))]
}

// Take returns the next n queries as a slice — a fixed workload two
// benchmark phases can replay identically.
func (st *Stream) Take(n int) []Query {
	out := make([]Query, n)
	for i := range out {
		out[i] = st.Next()
	}
	return out
}

func distinct(in []string) []string {
	seen := make(map[string]bool, len(in))
	var out []string
	for _, s := range in {
		if !seen[s] {
			seen[s] = true
			out = append(out, s)
		}
	}
	sort.Strings(out)
	return out
}
