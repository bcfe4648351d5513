package extract

import (
	"fmt"
	"testing"

	"extract/internal/gen"
	"extract/xmltree"
)

func shardedPair(t *testing.T) (unsharded, sharded *Corpus) {
	t.Helper()
	unsharded = FromDocument(gen.Figure5Corpus(), nil)
	sharded = FromDocumentSharded(gen.Figure5Corpus(), nil, 4)
	if sharded.Shards() < 2 {
		t.Fatalf("shards = %d", sharded.Shards())
	}
	if unsharded.Shards() != 1 {
		t.Fatalf("unsharded Shards() = %d", unsharded.Shards())
	}
	return unsharded, sharded
}

// TestShardedQueryMatchesUnsharded: the full facade pipeline — search,
// snippet fan-out, ranking — produces identical output on a sharded corpus.
func TestShardedQueryMatchesUnsharded(t *testing.T) {
	unsharded, sharded := shardedPair(t)
	for _, query := range []string{"austin store", "casual shirt", "nosuchword"} {
		for _, opts := range [][]SearchOption{
			nil,
			{WithELCA()},
			{WithTrimmedResults()},
			{WithRanking()},
			{WithMaxResults(2)},
		} {
			want, err1 := unsharded.Query(query, 10, opts...)
			got, err2 := sharded.Query(query, 10, opts...)
			if (err1 == nil) != (err2 == nil) {
				t.Fatalf("%q: errors differ: %v vs %v", query, err1, err2)
			}
			if err1 != nil {
				continue
			}
			if len(want) != len(got) {
				t.Fatalf("%q: %d hits, want %d", query, len(got), len(want))
			}
			for i := range want {
				if a, b := must(want[i].Result.XML()), must(got[i].Result.XML()); a != b {
					t.Fatalf("%q hit %d result differs:\n%s\n%s", query, i, a, b)
				}
				if a, b := want[i].Snippet.Inline(), got[i].Snippet.Inline(); a != b {
					t.Fatalf("%q hit %d snippet differs:\n%s\n%s", query, i, a, b)
				}
				if a, b := want[i].Result.Score(), got[i].Result.Score(); a != b {
					t.Fatalf("%q hit %d score %v, want %v", query, i, b, a)
				}
			}
		}
	}
}

func TestShardedStatsSuggestKeys(t *testing.T) {
	unsharded, sharded := shardedPair(t)
	us, ss := unsharded.Stats(), sharded.Stats()
	if ss.Nodes != us.Nodes || ss.Elements != us.Elements || ss.MaxDepth != us.MaxDepth ||
		ss.DistinctKeywords != us.DistinctKeywords {
		t.Errorf("stats = %+v, want %+v", ss, us)
	}
	if got, want := join(ss.Entities), join(us.Entities); got != want {
		t.Errorf("entities = %q, want %q", got, want)
	}
	if got, want := join(sharded.Suggest("s", 5)), join(unsharded.Suggest("s", 5)); got != want {
		t.Errorf("suggest = %q, want %q", got, want)
	}
	a1, ok1 := unsharded.EntityKey("store")
	a2, ok2 := sharded.EntityKey("store")
	if a1 != a2 || ok1 != ok2 {
		t.Errorf("entity key = %q,%v, want %q,%v", a2, ok2, a1, ok1)
	}
}

// TestShardedXPath: an XPath selection on a corpus of 3 and 4 shards equals
// the unsharded corpus's, result XML byte for byte, for expressions inside
// the shards and for expressions that cross them at the root: a positional
// predicate on the root's children past shard 0's, count() at the root, and
// ".." up to the root.
func TestShardedXPath(t *testing.T) {
	mk := func() *xmltree.Document {
		return gen.Stores(gen.StoresConfig{Retailers: 6, StoresPerRetailer: 3, ClothesPerStore: 4, Seed: 3})
	}
	unsharded := FromDocument(mk(), nil)
	defer unsharded.Close()
	root := unsharded.InternalShards().Shards()[0].Doc.Root
	for _, n := range []int{3, 4} {
		sharded := FromDocumentSharded(mk(), nil, n)
		if sharded.Shards() != n {
			t.Fatalf("%d shards, want %d", sharded.Shards(), n)
		}
		past := len(sharded.InternalShards().Shards()[0].Doc.Root.Children) + 1
		for _, expr := range []string{
			"//store/city",
			fmt.Sprintf("/*/*[%d]", past),
			fmt.Sprintf("/*/*[%d]//city", past),
			fmt.Sprintf("/%s[count(*) = %d]", root.Label, len(root.Children)),
			fmt.Sprintf("/*[count(*/*) > %d]", len(root.Children)),
			fmt.Sprintf("/*/*[%d]/..", past),
			"//store/../..",
		} {
			want, err := unsharded.XPath(expr)
			if err != nil {
				t.Fatal(err)
			}
			got, err := sharded.XPath(expr)
			if err != nil {
				t.Fatal(err)
			}
			if len(want) == 0 || len(want) != len(got) {
				t.Fatalf("%d shards, %s: %d results, want %d", n, expr, len(got), len(want))
			}
			for i := range want {
				if a, b := must(want[i].XML()), must(got[i].XML()); a != b {
					t.Fatalf("%d shards, %s: result %d differs\nwant %s\ngot  %s", n, expr, i, a, b)
				}
			}
		}
		sharded.Close()
	}
}

// TestLoadWithShardsOption: the loader option wires sharding end to end.
func TestLoadWithShardsOption(t *testing.T) {
	xml := xmltree.XMLString(gen.Figure5Corpus().Root)
	c, err := LoadString(xml, WithShards(3))
	if err != nil {
		t.Fatal(err)
	}
	if c.Shards() != 3 {
		t.Fatalf("shards = %d", c.Shards())
	}
	hits, err := c.Query("austin store", 10)
	if err != nil || len(hits) == 0 {
		t.Fatalf("query: %v (%d hits)", err, len(hits))
	}
	if _, err := LoadString(xml, WithShards(-1)); err == nil {
		t.Error("negative shard count accepted")
	}
}

func join(ss []string) string {
	out := ""
	for i, s := range ss {
		if i > 0 {
			out += ","
		}
		out += s
	}
	return out
}
