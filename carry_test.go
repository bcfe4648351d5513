package extract

import (
	"bytes"
	"fmt"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"testing"
	"time"
	"weak"

	"extract/internal/core"
	"extract/internal/search"
	"extract/xmltree"
)

// The fates of extract_cache_carried_total, as carryFates indexes them.
const (
	fateReused = iota
	fateRecomputed
	fateDropped
)

// carryFates reads extract_cache_carried_total by fate.
func carryFates(c *Corpus) (f [3]float64) {
	c.server() // the serving layer registers the series
	for _, m := range c.reg.Snapshot().Metrics {
		if m.Name != "extract_cache_carried_total" {
			continue
		}
		for _, l := range m.Labels {
			if l.Key == "fate" {
				f[slices.Index([]string{"reused", "recomputed", "dropped"}, l.Value)] = m.Value
			}
		}
	}
	return f
}

// carryMix is one option mix of the carry properties.
type carryMix struct {
	name string
	opts []SearchOption
}

// carryMixes are SLCA and ELCA, unbounded and at 1 and 25 results, each
// ranked and unranked, and trimmed results (owned trees, never carried). A
// ranked query and its unranked twin share one cache entry, so the ranked
// one comes first: it is the lookup that re-proves a carried entry, and then
// ranks it.
func carryMixes() []carryMix {
	out := []carryMix{{"slca/xseek", []SearchOption{WithTrimmedResults()}}}
	for _, sem := range []struct {
		name string
		opts []SearchOption
	}{{"slca", nil}, {"elca", []SearchOption{WithELCA()}}} {
		for _, n := range []int{0, 1, 25} {
			base := append(slices.Clone(sem.opts), WithMaxResults(n))
			out = append(out,
				carryMix{fmt.Sprintf("%s/max%d/ranked", sem.name, n), append(slices.Clone(base), WithRanking())},
				carryMix{fmt.Sprintf("%s/max%d", sem.name, n), base})
		}
	}
	return out
}

// renderCarried is everything a reader can see of an answer, in its order:
// each hit's result XML and score, its snippet's XML, edges, result key and
// IList (derived).
func renderCarried(hits []*Hit) string {
	var b strings.Builder
	for _, h := range hits {
		fmt.Fprintf(&b, "%s\n%v\n%s\n%d %q %q\n", must(h.Result.XML()), h.Result.Score(),
			h.Snippet.XML(), h.Snippet.Edges(), h.Snippet.ResultKey(), h.Snippet.IList())
	}
	return b.String()
}

// carryVariants are deltaVariants plus two more one-shard edits of the last
// entities: one that adds a posting of "socks" — a ranked keyword whose
// document frequency moves while answers cut before the edit stay — and one
// that adds a label, which changes the classification.
func carryVariants() map[string]func() *xmltree.Document {
	vs := deltaVariants()
	vs["df-shift"] = func() *xmltree.Document {
		doc := deltaBaseDoc()
		name := doc.Root.Children[3].Children[0].Children[0] // the last retailer's name
		name.Value += " socks"
		return doc
	}
	vs["new-label"] = func() *xmltree.Document {
		doc := deltaBaseDoc()
		xmltree.Append(doc.Root.Children[3], xmltree.Elem("zzzlabel", xmltree.Txt("zzzlabel value")))
		return xmltree.NewDocument(doc.Root)
	}
	return vs
}

// carryQueries are deltaQueries plus queries aimed at each fate: "socks"
// (the ranked keyword df-shift moves), the root label (a whole-document
// answer, never carried), and "zzzfresh brook": nothing before one-entity's
// edit; after it the two keywords meet only at the root, which a
// shard-local answer cannot say, so the re-proof's round one flips its
// digests into round two.
func carryQueries() []string {
	return append(deltaQueries(deltaBaseDoc), "store texas", "socks", "zzzfresh brook", "retailers", "retailers socks")
}

// carryCounts tallies what a carry property saw.
type carryCounts struct {
	reused, recomputed, dropped float64
	cutReachesRebuilt           int // recomputed: the answer has a result in a rebuilt shard
	roundTwo                    int // recomputed: the answer is a whole-document one
	rankedReuseMoved            int // reused, ranked, and scored differently than before the reload
}

// carryCase answers every query of every mix on c before and after reload,
// and checks each answer after it against fresh, a fresh load of what the
// reload read, on the first lookup and on the next (a hit). It returns
// what became of the carried entries.
func carryCase(t *testing.T, label string, c, fresh *Corpus, queries []string, reload func() (DeltaStats, error)) (n carryCounts) {
	t.Helper()
	const bound = 8
	mixes := carryMixes()
	before := map[string]string{}
	for _, q := range queries {
		for _, m := range mixes {
			hits, err := c.Query(q, bound, m.opts...)
			if err != nil {
				t.Fatalf("%s: q=%q %s: %v", label, q, m.name, err)
			}
			before[q+"|"+m.name] = renderCarried(hits)
		}
	}
	prev := c.InternalShards()
	f0 := carryFates(c)
	if _, err := reload(); err != nil {
		t.Fatalf("%s: reload: %v", label, err)
	}
	f1 := carryFates(c)
	n.dropped = f1[fateDropped] - f0[fateDropped]
	adopted := func(r *search.Result) bool {
		return slices.ContainsFunc(prev.Shards(), func(s *core.Corpus) bool { return s.Index == r.Index })
	}
	for _, q := range queries {
		for _, m := range mixes {
			want, werr := fresh.Query(q, bound, m.opts...)
			if werr != nil {
				t.Fatalf("%s: fresh q=%q %s: %v", label, q, m.name, werr)
			}
			for pass := 0; pass < 2; pass++ {
				fa := carryFates(c)
				got, err := c.Query(q, bound, m.opts...)
				if err != nil {
					t.Fatalf("%s: q=%q %s pass %d: %v", label, q, m.name, pass, err)
				}
				if g, w := renderCarried(got), renderCarried(want); g != w {
					t.Fatalf("%s: q=%q %s pass %d: answer differs from a fresh load's\nwant %s\ngot  %s", label, q, m.name, pass, w, g)
				}
				fb := carryFates(c)
				switch {
				case fb[fateReused] > fa[fateReused]:
					n.reused++
					if strings.HasSuffix(m.name, "ranked") && before[q+"|"+m.name] != renderCarried(got) {
						n.rankedReuseMoved++
					}
				case fb[fateRecomputed] > fa[fateRecomputed]:
					n.recomputed++
					for _, h := range got {
						r := h.Result.r
						if view, _ := r.Whole(); view != nil || r.Anchor.Ord == 0 {
							n.roundTwo++
							break
						}
						if !adopted(r) {
							n.cutReachesRebuilt++
							break
						}
					}
				}
			}
		}
	}
	return n
}

// TestDeltaReloadKeepsOnlyUnchangedAnswers is the carry property: whatever
// a delta reload carries, every answer after it — hits, result XML, snippet
// XML, edges, result keys, ILists, scores and ranked order — equals a fresh
// load's, on the lookup that re-proves or recomputes a carried entry and on
// the hit after it. It runs every delta variant, a snapshot delta, and
// 1, 3 and 4 shards, SLCA and ELCA, ranked and unranked, unbounded and at 1
// and 25 results; and it holds that each fate occurs: reused — a ranked one
// among them whose scores moved, since the reload moved a df —, recomputed
// — for an answer whose cut reaches the rebuilt shard and for one whose
// digests flip into round two — and dropped; and that a delta which changes
// the classification carries nothing.
func TestDeltaReloadKeepsOnlyUnchangedAnswers(t *testing.T) {
	xmlA := xmltree.XMLString(deltaBaseDoc().Root)
	queries := carryQueries()
	var total carryCounts
	add := func(n carryCounts) {
		total.reused += n.reused
		total.recomputed += n.recomputed
		total.dropped += n.dropped
		total.cutReachesRebuilt += n.cutReachesRebuilt
		total.roundTwo += n.roundTwo
		total.rankedReuseMoved += n.rankedReuseMoved
	}
	for variant, mk := range carryVariants() {
		xmlB := xmltree.XMLString(mk().Root)
		for _, shards := range []int{1, 3, 4} {
			label := fmt.Sprintf("%s/shards=%d", variant, shards)
			opts := []Option{WithShards(shards)}
			c, err := LoadString(xmlA, opts...)
			if err != nil {
				t.Fatal(err)
			}
			fresh, err := LoadString(xmlB, opts...)
			if err != nil {
				t.Fatal(err)
			}
			var stats DeltaStats
			n := carryCase(t, label, c, fresh, queries, func() (DeltaStats, error) {
				stats, err = c.ReloadDelta(strings.NewReader(xmlB), opts...)
				return stats, err
			})
			if variant == "new-label" {
				if shards > 1 && stats.Reused == 0 {
					t.Fatalf("%s: the edit rebuilt every shard: %+v", label, stats)
				}
				if n.reused+n.recomputed != 0 || n.dropped == 0 {
					t.Fatalf("%s: a classification change carried entries: %+v", label, n)
				}
			}
			add(n)
			c.Close()
			fresh.Close()
		}
	}

	// One snapshot delta: a one-entity edit read from snapshot images.
	xmlB := xmltree.XMLString(deltaVariants()["one-entity"]().Root)
	for _, shards := range []int{1, 3, 4} {
		label := fmt.Sprintf("snapshot/shards=%d", shards)
		dirA := filepath.Join(t.TempDir(), "a.xtsnap")
		dirB := filepath.Join(t.TempDir(), "b.xtsnap")
		for _, s := range []struct{ xml, dir string }{{xmlA, dirA}, {xmlB, dirB}} {
			src, err := LoadString(s.xml, WithShards(shards))
			if err != nil {
				t.Fatal(err)
			}
			if err := src.SaveSnapshot(s.dir); err != nil {
				t.Fatal(err)
			}
			src.Close()
		}
		c, err := LoadSnapshot(dirA)
		if err != nil {
			t.Fatal(err)
		}
		fresh, err := LoadSnapshot(dirB)
		if err != nil {
			t.Fatal(err)
		}
		add(carryCase(t, label, c, fresh, queries, func() (DeltaStats, error) { return c.ReloadSnapshot(dirB) }))
		c.Close()
		fresh.Close()
	}

	t.Logf("fates: %+v", total)
	if total.reused == 0 || total.recomputed == 0 || total.dropped == 0 {
		t.Errorf("every fate must occur: %+v", total)
	}
	if total.cutReachesRebuilt == 0 || total.roundTwo == 0 {
		t.Errorf("recomputed must cover a cut reaching the rebuilt shard and a flip into round two: %+v", total)
	}
	if total.rankedReuseMoved == 0 {
		t.Errorf("no reused ranked answer scored differently after its reload: %+v", total)
	}
}

// FuzzCarriedAnswersMatchFreshLoad: for any pair of documents and shard
// count, a corpus that answered queries before a delta reload answers every
// one of them after it as a fresh load of the second document does, ranked
// scores included — whatever its cache carried across the swap.
func FuzzCarriedAnswersMatchFreshLoad(f *testing.F) {
	base := xmltree.XMLString(splitBaseDoc().Root)
	// Plus a df that moves under answers cut before the edit (their
	// rankings), and a match added in the first shard, before answers that
	// lie in later ones.
	for _, b := range append(deltaSeeds(base), inEntity(base, 7, "</name>", " casual</name>"), inEntity(base, 0, "</name>", " Outlet</name>")) {
		f.Add([]byte(base), []byte(b), uint8(4))
	}
	queries := []string{"store", "name outlet", "retailer store", "retailers", "re", "casual store", "clothes man"}
	mixes := []carryMix{
		{"ranked", []SearchOption{WithRanking()}},
		{"max2", []SearchOption{WithMaxResults(2)}},
		{"elca/max3/ranked", []SearchOption{WithELCA(), WithMaxResults(3), WithRanking()}},
	}
	f.Fuzz(func(t *testing.T, a, b []byte, shards uint8) {
		opts := []Option{WithShards(int(shards % 6))}
		c, err := LoadString(string(a), opts...)
		if err != nil {
			return
		}
		defer c.Close()
		for _, q := range queries {
			for _, m := range mixes {
				c.Query(q, 6, m.opts...)
			}
		}
		if _, err := c.ReloadDelta(bytes.NewReader(b), opts...); err != nil {
			return
		}
		fresh, err := LoadString(string(b), opts...)
		if err != nil {
			t.Fatalf("the delta loaded what a fresh load refuses: %v", err)
		}
		defer fresh.Close()
		for _, q := range queries {
			for _, m := range mixes {
				got, gerr := c.Query(q, 6, m.opts...)
				want, werr := fresh.Query(q, 6, m.opts...)
				if (gerr == nil) != (werr == nil) {
					t.Fatalf("q=%q %s: errors differ: %v vs %v", q, m.name, gerr, werr)
				}
				if g, w := renderCarried(got), renderCarried(want); g != w {
					t.Fatalf("q=%q %s: answer differs from a fresh load's\nwant %s\ngot  %s", q, m.name, w, g)
				}
			}
		}
	})
}

// TestCarriedEntriesReleaseRebuiltShard: the entries a partial delta
// carries hold nothing of the generation it replaced — neither its backend
// nor its generator — so the rebuilt shard's old document is garbage once
// the swap is done, although the cache still holds answers computed on
// that generation.
func TestCarriedEntriesReleaseRebuiltShard(t *testing.T) {
	xmlA := xmltree.XMLString(deltaBaseDoc().Root)
	xmlB := xmltree.XMLString(deltaVariants()["one-entity"]().Root)
	c, err := LoadString(xmlA, WithShards(4), WithWorkers(2))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	queries := carryQueries()
	for _, q := range queries {
		for _, m := range carryMixes() {
			if _, err := c.Query(q, 8, m.opts...); err != nil {
				t.Fatal(err)
			}
		}
	}
	old := c.InternalShards()
	reclaimed := make(chan struct{}, 1)
	stats, err := c.ReloadDelta(strings.NewReader(xmlB), WithShards(4))
	if err != nil || stats.Rebuilt != 1 {
		t.Fatalf("reload: %+v, err %v; want one shard rebuilt", stats, err)
	}
	next := c.InternalShards()
	for i, s := range old.Shards() {
		if s.Index != next.Shards()[i].Index {
			runtime.SetFinalizer(s.Doc, func(*xmltree.Document) { reclaimed <- struct{}{} })
		}
	}
	old, next = nil, nil
	st, _ := c.QueryCacheStats()
	if st.Entries == 0 {
		t.Fatalf("the reload carried nothing (%d entries left): the pin needs carried entries", st.Entries)
	}
	for _, q := range queries[:3] { // re-prove a few of them
		if _, err := c.Query(q, 8); err != nil {
			t.Fatal(err)
		}
	}
	deadline := time.After(10 * time.Second)
	for {
		runtime.GC()
		select {
		case <-reclaimed:
			if st, _ := c.QueryCacheStats(); st.Entries == 0 {
				t.Fatal("the cache emptied before the document was reclaimed")
			}
			return
		case <-time.After(20 * time.Millisecond):
		case <-deadline:
			t.Fatal("the rebuilt shard's old document was not reclaimed while entries were carried")
		}
	}
}

// TestTreeReadKeepsItsEntry: building a whole-document result's tree never
// evicts the cache entry holding the result. Under a budget the tree alone
// exceeds, the first Root() leaves Evictions at 0 — the entry keeps its
// charge and the result keeps its tree — and the query asked again is a
// hit.
func TestTreeReadKeepsItsEntry(t *testing.T) {
	doc := deltaBaseDoc()
	root := doc.Root.Label
	c := FromDocumentSharded(doc, nil, 3, WithQueryCache(16*16<<10)) // 16 KiB a cache shard
	defer c.Close()
	hits, err := c.Query(root, 6)
	if err != nil || len(hits) != 1 {
		t.Fatalf("%d hits, err %v; want the whole document", len(hits), err)
	}
	if view, _ := hits[0].Result.r.Whole(); view == nil {
		t.Fatal("the root query's hit is not a whole-document result")
	}
	if hits[0].Result.Size()*136 < 16<<10 {
		t.Fatalf("the whole document (%d edges) fits a cache shard: the pin needs one that does not", hits[0].Result.Size())
	}
	before, _ := c.QueryCacheStats()
	if _, err := hits[0].Result.Root(); err != nil {
		t.Fatal(err)
	}
	after, _ := c.QueryCacheStats()
	if after.Evictions != before.Evictions || after.Entries != before.Entries {
		t.Fatalf("reading the tree evicted: %+v, then %+v", before, after)
	}
	if _, err := c.Query(root, 6); err != nil {
		t.Fatal(err)
	}
	if again, _ := c.QueryCacheStats(); again.Hits != after.Hits+1 || again.Misses != after.Misses {
		t.Fatalf("the query asked again missed: %+v, then %+v", after, again)
	}
}

// TestReadTreesStayBounded: the whole-document trees readers build do not
// pile up in the cache. Under a budget that none of them fits, after the
// trees of many distinct root queries are read and their hits dropped, at
// most one tree a cache shard is still reachable: the entry a read
// re-prices past its cache shard is charged the whole shard.
func TestReadTreesStayBounded(t *testing.T) {
	doc := deltaBaseDoc()
	root := doc.Root.Label
	const cacheShards, queries = 16, 64
	c := FromDocumentSharded(doc, nil, 3, WithQueryCache(cacheShards*16<<10)) // 16 KiB a cache shard
	defer c.Close()
	var trees []weak.Pointer[xmltree.Node]
	for bound := 1; bound <= queries; bound++ { // the bound is part of the cache key
		hits, err := c.Query(root, bound)
		if err != nil || len(hits) != 1 {
			t.Fatalf("bound %d: %d hits, err %v; want the whole document", bound, len(hits), err)
		}
		if view, _ := hits[0].Result.r.Whole(); view == nil {
			t.Fatal("the root query's hit is not a whole-document result")
		}
		tree, err := hits[0].Result.Root()
		if err != nil {
			t.Fatal(err)
		}
		trees = append(trees, weak.Make(tree))
	}
	runtime.GC()
	runtime.GC()
	alive := 0
	for _, w := range trees {
		if w.Value() != nil {
			alive++
		}
	}
	if alive > cacheShards {
		t.Fatalf("%d of %d read trees are still reachable; want at most one a cache shard (%d)", alive, queries, cacheShards)
	}
	if st, _ := c.QueryCacheStats(); st.Bytes > st.Capacity {
		t.Fatalf("the cache holds more than its budget: %+v", st)
	}
}
