package remote

import (
	"crypto/sha256"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"extract/internal/search"
	"extract/internal/shard"
)

var updateFrozen = flag.Bool("update", false, "rewrite the frozen wire digests under testdata")

// frozenWire encodes the eval responses, full responses, tree records and
// snippet records a shard server sends for a fixed matrix — the eval and full
// responses at a snippet bound, so they carry their records too — the test
// corpora at 1, 3 and 4 shards, SLCA and ELCA, subtree and ModeXSeek, the
// property suite's queries plus a phrase — and returns one line per body:
// its case, its length and its SHA-256 (the bodies themselves, whole-document
// trees among them, run to tens of megabytes).
func frozenWire(tb testing.TB) []byte {
	tb.Helper()
	var out []byte
	record := func(name string, body []byte) {
		sum := sha256.Sum256(body)
		out = fmt.Appendf(out, "%s %d %x\n", name, len(body), sum)
	}
	for _, cc := range testCorpora() {
		for _, n := range []int{1, 3, 4} {
			sc := shard.Build(cc.mk(), n)
			srv := NewServer(sc)
			st := srv.state.Load()
			queries := append(testQueries(cc.mk()), `"brook brothers" store`)
			for oi, opts := range []search.Options{
				{DistinctAnchors: true},
				{DistinctAnchors: true, Semantics: search.SemanticsELCA},
				{DistinctAnchors: true, Mode: search.ModeXSeek},
				{DistinctAnchors: true, Semantics: search.SemanticsELCA, Mode: search.ModeXSeek},
			} {
				for qi, q := range queries {
					name := fmt.Sprintf("%s/n=%d/opts=%d/q=%d", cc.name, n, oi, qi)
					a, err := srv.evaluate(st, evalReq{opts: opts, query: q, shards: st.ownedList, bound: 6})
					if err != nil {
						continue // the matrix includes the empty query
					}
					record(name+"/eval", appendEvalResp(nil, a))
					_, handles := shippedOf(a)
					whole, err := srv.fullEval(st, evalReq{opts: opts, query: q, bound: 6})
					if err != nil {
						tb.Fatalf("%s: %v", name, err)
					}
					record(name+"/full", appendFullResp(nil, whole))
					handles = append(handles, whole.handles...)
					if len(handles) == 0 {
						continue
					}
					req := treesReq{opts: opts, query: q, fingerprint: st.fingerprint, bound: -1, handles: handles}
					rs, err := srv.trees(st, req)
					if err != nil {
						tb.Fatalf("%s: %v", name, err)
					}
					record(name+"/trees", appendTreesResp(nil, rs))
					req.bound = 6
					gs, err := srv.snippets(st, req)
					if err != nil {
						tb.Fatalf("%s: %v", name, err)
					}
					record(name+"/snippets", appendRecords(nil, gs))
				}
			}
		}
	}
	return out
}

// TestWireBytesAreFrozen pins what a shard server sends, byte for byte: the
// shipped results of eval and full responses (sizes, handles, match
// depths) and the snippet records they carry, the tree records of a trees response (with their match
// positions) and the snippet records of a snippets response, over a fixed
// matrix, against digests of bodies encoded once and committed. A change to
// how results hold their matches, or to how snippets are derived, must leave
// every one of them as it was; a change of the wire layout bumps the protocol
// version and rewrites the file with -update.
func TestWireBytesAreFrozen(t *testing.T) {
	got := frozenWire(t)
	path := filepath.Join("testdata", "wire.v10.frozen")
	if *updateFrozen {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("frozen digests missing (run with -update): %v", err)
	}
	gotLines, wantLines := strings.Split(string(got), "\n"), strings.Split(string(want), "\n")
	for i, w := range wantLines {
		if i >= len(gotLines) || gotLines[i] != w {
			t.Fatalf("line %d moved:\n got %q\nwant %q", i+1, strings.Join(gotLines[i:min(i+1, len(gotLines))], ""), w)
		}
	}
	if len(gotLines) != len(wantLines) {
		t.Fatalf("%d lines, want %d", len(gotLines), len(wantLines))
	}
}
