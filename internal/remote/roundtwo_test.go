package remote

import (
	"fmt"
	"testing"

	"extract/internal/gen"
	"extract/internal/index"
	"extract/internal/search"
	"extract/internal/shard"
	"extract/xmltree"
)

// nestedParts is a recursive schema that makes the document root an entity,
// so the match in its own trailing <name> anchors a result at the root — on
// the last shard of a sharded copy, whose other LCAs lie in other shards.
func nestedParts() *xmltree.Document {
	root := xmltree.Elem("part")
	for i := 0; i < 8; i++ {
		xmltree.Append(root, xmltree.Elem("part", xmltree.Elem("name", xmltree.Txt(fmt.Sprintf("engine piece %d", i)))))
	}
	xmltree.Append(root, xmltree.Elem("name", xmltree.Txt("engine")))
	return xmltree.NewDocument(root)
}

// TestRootAnchoredProjectionRoutes: a round-two answer's result anchored at
// the root whose LCA lies in a shard after the first — a ModeXSeek
// projection, which is no whole-document view — ships as a whole handle at
// its LCA's global position, and its tree and snippet equal the local ones;
// every other result of the answer is fetched from its own shard's group.
func TestRootAnchoredProjectionRoutes(t *testing.T) {
	sc := shard.Build(nestedParts(), 4)
	cl := startCluster(t, sc, 2, 1)
	checkRouterEquivalence(t, "nested parts", sc, cl.router, []search.Options{
		{DistinctAnchors: true, Mode: search.ModeXSeek},
		{Mode: search.ModeXSeek},
		{Semantics: search.SemanticsELCA, Mode: search.ModeXSeek},
		{DistinctAnchors: true},
	}, []string{"engine", "part engine", "name"})
	if cl.router.metrics.calls[[3]string{"full", "ok", "any"}].Value() == 0 {
		t.Fatal("no query took the whole-document round")
	}
}

// TestWholeAnswerAllocations: a shard server answering round two — a full
// request, composed from its own shards' round one, then a snippets call for
// the whole-document handle it shipped — allocates the same number of
// objects on a 4-shard corpus whatever the corpus's size, and builds no
// index: nothing of the whole document is copied — the whole-document result
// is a view over the shards, its statistics folded once per generation.
func TestWholeAnswerAllocations(t *testing.T) {
	if raceDetector {
		t.Skip("the race detector's own allocations make counts inexact")
	}
	counts := make(map[int]float64)
	nodes := make([]int, 2)
	for ci, clothes := range []int{3, 60} {
		doc := gen.Stores(gen.StoresConfig{Retailers: 4, StoresPerRetailer: 8, ClothesPerStore: clothes, Seed: 5})
		nodes[ci] = doc.Len()
		q := doc.Root.Label // the root is the sole SLCA
		sc := shard.Build(doc, 4)
		srv := NewServer(sc)
		st := srv.state.Load()
		opts := search.Options{DistinctAnchors: true}
		full := encodeEvalReq(evalReq{opts: opts, query: q, bound: 6})
		snippets := encodeTreesReq(treesReq{opts: opts, query: q, fingerprint: st.fingerprint, bound: 6,
			handles: []handle{{shard: wholeShard}}})
		for k, req := range []struct {
			t       msgType
			payload []byte
			want    msgType
		}{{msgFull, full, msgFullResp}, {msgSnippets, snippets, msgSnippetsResp}} {
			call := func() {
				if got, _ := srv.handle(req.t, req.payload, nil); got != req.want {
					t.Fatalf("request %d answered with message %d", req.t, got)
				}
			}
			builds := index.Builds()
			for range 20 { // the pooled scratch grows, the statistics are folded
				call()
			}
			got := testing.AllocsPerRun(50, call)
			if index.Builds() != builds {
				t.Fatalf("request %d: %d index builds: the whole document was copied", req.t, index.Builds()-builds)
			}
			if ci == 0 {
				counts[k] = got
			} else if got != counts[k] {
				t.Errorf("request %d: %v objects on a %d-node corpus, %v on %d nodes", req.t, got, nodes[1], counts[k], nodes[0])
			}
		}
		srv.Close()
	}
	if nodes[1] < 10*nodes[0] {
		t.Fatalf("corpora of %d and %d nodes: not tenfold apart", nodes[0], nodes[1])
	}
}
