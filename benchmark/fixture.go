package main

import (
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"extract"
	"extract/internal/gen"
	"extract/internal/workload"
	"extract/xmltree"
)

// Fixed query parameters of every op.
const (
	snippetBound = 10
	maxResults   = 25
	corpusShards = 4
)

// fixture is the one input set all workloads share: the corpus on disk in
// two variants (B differs from A in one store of the last retailer, so a
// delta reload between them rebuilds exactly one shard) and the query pool.
// Building it is never timed.
type fixture struct {
	dir          string // scratch directory of this run
	fileA, fileB string
	nodes        int
	pool         []string // query texts, de-duplicated on the sorted keyword set
}

// other returns the variant that file is not.
func (fx *fixture) other(file string) string {
	if file == fx.fileA {
		return fx.fileB
	}
	return fx.fileA
}

// fixtureSeed fixes the corpus values and the pool; see stream for why the
// run's seed does not reach them.
const fixtureSeed = 1

func buildFixture(dir string) (*fixture, error) {
	if err := os.RemoveAll(dir); err != nil {
		return nil, err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	doc := gen.Stores(gen.StoresConfig{
		Retailers: 64, StoresPerRetailer: 10, ClothesPerStore: 55,
		Cities: 200, CategoryCount: 300, Skew: 1.1, Seed: fixtureSeed,
	})
	fx := &fixture{
		dir:   dir,
		fileA: filepath.Join(dir, "corpus-a.xml"),
		fileB: filepath.Join(dir, "corpus-b.xml"),
		nodes: len(doc.Nodes()),
	}

	// The pool is drawn before variant B is cut, and never from the last
	// retailer: its queries must keep at least one result on both variants.
	retailers := doc.Root.Children
	last := retailers[len(retailers)-1]
	seen := map[string]bool{}
	for _, kw := range []int{2, 3} {
		for _, q := range workload.Generate(doc, workload.Config{Queries: 1000, Keywords: kw, Seed: fixtureSeed + int64(kw)}) {
			if q.AnchorOrd >= last.Ord {
				continue
			}
			sorted := append([]string(nil), q.Keywords...)
			sort.Strings(sorted)
			key := strings.Join(sorted, " ")
			if !seen[key] {
				seen[key] = true
				fx.pool = append(fx.pool, q.Text())
			}
		}
	}
	// Generate emits all 2-keyword queries first; shuffle so that a prefix
	// of the pool (the cached workloads use one) is half and half too.
	rand.New(rand.NewSource(fixtureSeed)).Shuffle(len(fx.pool), func(i, j int) {
		fx.pool[i], fx.pool[j] = fx.pool[j], fx.pool[i]
	})

	if err := os.WriteFile(fx.fileA, []byte(xmltree.XMLString(doc.Root)), 0o644); err != nil {
		return nil, err
	}
	stores := last.ChildElements("store")
	city := stores[len(stores)-1].ChildElement("city")
	if city == nil || !city.HasSingleTextChild() {
		return nil, fmt.Errorf("fixture: last store has no city value to change")
	}
	city.Children[0].Value = "Relocated"
	if err := os.WriteFile(fx.fileB, []byte(xmltree.XMLString(doc.Root)), 0o644); err != nil {
		return nil, err
	}
	return fx, nil
}

// op is one request: a pool query with the options tied to it. Every 5th
// pool query asks for ELCA, every 7th for ranking.
type op struct {
	query int // index into the pool
}

func (o op) elca() bool   { return o.query%5 == 4 }
func (o op) ranked() bool { return o.query%7 == 6 }

func (o op) options() []extract.SearchOption {
	opts := []extract.SearchOption{extract.WithMaxResults(maxResults)}
	if o.elca() {
		opts = append(opts, extract.WithELCA())
	}
	if o.ranked() {
		opts = append(opts, extract.WithRanking())
	}
	return opts
}

// passOps is the fixed multiset of ops every pass of a workload issues:
// each of the first pool queries once (zipfS <= 1), or n ops shared out over
// them in proportion to Zipf weights 1/(1+rank)^zipfS, largest remainders
// first, so the rare tail appears once or not at all.
func passOps(pool, n int, zipfS float64) []op {
	if zipfS <= 1 {
		ops := make([]op, pool)
		for q := range ops {
			ops[q].query = q
		}
		return ops
	}
	weights := make([]float64, pool)
	var total float64
	for q := range weights {
		weights[q] = math.Pow(float64(1+q), -zipfS)
		total += weights[q]
	}
	counts := make([]int, pool)
	order := make([]int, pool)
	left := n
	for q := range weights {
		weights[q] *= float64(n) / total
		counts[q] = int(weights[q])
		left -= counts[q]
		order[q] = q
	}
	sort.SliceStable(order, func(i, j int) bool {
		return weights[order[i]]-float64(counts[order[i]]) > weights[order[j]]-float64(counts[order[j]])
	})
	for _, q := range order[:left] {
		counts[q]++
	}
	ops := make([]op, 0, n)
	for q, c := range counts {
		for ; c > 0; c-- {
			ops = append(ops, op{query: q})
		}
	}
	return ops
}

// stream deals a workload's passes: the same multiset of ops every pass, in
// an order the seed decides. The seed moves nothing else — corpus and pool
// are fixed — because the cost of a query is heavy-tailed: letting the seed
// pick the corpus values or the pool moved alloc_kb_per_req by 6.5 % and
// throughput by 10 % between seeds (IQR ÷ median, ten seeds), more than the
// bounds a regression has to be caught within.
type stream struct {
	r    *rand.Rand
	pass []op
}

func newStream(seed int64, pass []op) *stream {
	return &stream{r: rand.New(rand.NewSource(seed)), pass: pass}
}

func (st *stream) nextPass() []op {
	ops := append([]op(nil), st.pass...)
	st.r.Shuffle(len(ops), func(i, j int) { ops[i], ops[j] = ops[j], ops[i] })
	return ops
}
