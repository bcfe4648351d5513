package remote

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"slices"
	"testing"

	"extract/internal/bin"
	"extract/internal/core"
	"extract/internal/search"
)

// frameBytes builds one well-formed frame for seeding.
func frameBytes(version byte, t msgType, payload []byte) []byte {
	var hdr [frameHeaderLen]byte
	hdr[0], hdr[1] = frameMagic0, frameMagic1
	hdr[2] = version
	hdr[3] = byte(t)
	binary.LittleEndian.PutUint32(hdr[4:8], uint32(len(payload)))
	binary.LittleEndian.PutUint32(hdr[8:12], crc32.Checksum(payload, bin.CRC32C))
	return append(hdr[:], payload...)
}

// FuzzFrame drives the wire-protocol decoder — frame reader plus every
// payload decoder — with arbitrary bytes. Corrupt, truncated or
// version-skewed input must come back as a classified error (a
// *ProtocolError, or io.EOF for a clean close), never a panic, and the
// length caps must keep any single allocation bounded regardless of what
// the length fields claim.
func FuzzFrame(f *testing.F) {
	f.Add(frameBytes(wireVersion, msgHello, nil))
	f.Add(frameBytes(wireVersion, msgHello, retiredGreeting)) // framed, refused by the handshake
	evalPayload := encodeEvalReq(evalReq{
		opts:   search.Options{DistinctAnchors: true, MaxResults: 5},
		query:  "xml keyword",
		shards: []uint32{0, 1},
		bound:  -1,
	})
	f.Add(frameBytes(wireVersion, msgEval, evalPayload))
	// Retired wire v1: the greeting, a request without its trace ID, and the
	// negotiation request. All must now be refused as version skew.
	f.Add(frameBytes(1, msgHello, retiredGreeting))
	f.Add(frameBytes(1, msgEval, evalPayload))
	f.Add(frameBytes(1, msgHello, []byte{2}))
	// Retired wire v2: the greeting and an eval request without a bound.
	f.Add(frameBytes(2, msgHello, retiredGreeting))
	f.Add(frameBytes(2, msgEval, v2EvalReq(evalPayload)))
	// Retired wire v3: the greeting, an eval request, and its digest request
	// (type 4 then, the full request's type now).
	f.Add(frameBytes(3, msgHello, retiredGreeting))
	f.Add(frameBytes(3, msgEval, v7EvalReq(evalPayload)))
	f.Add(frameBytes(3, msgType(4), v7EvalReq(evalPayload)))
	// Retired wire v4: the greeting with its payload, an eval request, and
	// the ping (whose type number is the error message's now).
	f.Add(frameBytes(4, msgHello, retiredGreeting))
	f.Add(frameBytes(4, msgEval, v7EvalReq(evalPayload)))
	f.Add(frameBytes(4, v4Ping, nil))
	// Retired wire v5: its empty greeting, an eval request, and an eval
	// response whose result carries its tree record.
	f.Add(frameBytes(5, msgHello, nil))
	f.Add(frameBytes(5, msgEval, v7EvalReq(evalPayload)))
	f.Add(frameBytes(5, msgEvalResp, append(appendRespHeader(nil, 7), v5EvalResp...)))
	// Retired wire v6: its empty greeting, an eval request, and an eval
	// response whose result carries its snippet.
	f.Add(frameBytes(6, msgHello, nil))
	f.Add(frameBytes(6, msgEval, v7EvalReq(evalPayload)))
	f.Add(frameBytes(6, msgEvalResp, append(appendRespHeader(nil, 7), v6SnippetedEvalResp...)))
	// Retired wire v7: its empty greeting, an eval and a full request with the
	// snippet bound and the trace ID, and a full response whose result carries
	// its snippet.
	f.Add(frameBytes(7, msgHello, nil))
	f.Add(frameBytes(7, msgEval, v7EvalReq(evalPayload)))
	f.Add(frameBytes(7, msgFull, v7EvalReq(encodeEvalReq(evalReq{query: "xml keyword", bound: -1}))))
	f.Add(frameBytes(7, msgFullResp, append(appendRespHeader(nil, 7), v7SnippetedFullResp...)))
	// Retired wire v8: an eval request without a snippet bound, and a full
	// response without its record list.
	f.Add(frameBytes(8, msgEval, v8EvalReq(evalPayload)))
	v8Terms := []string{"misérables", "✓"}
	f.Add(frameBytes(8, msgFullResp, appendResults(appendRespHeader(nil, 7), shardAnswer{hits: []search.Hit{{}},
		shipped: appendShipOf(nil, syntheticResults()["attributes and multi-byte text"], v8Terms)}, len(v8Terms))))
	// Retired wire v9: a full response whose result is a handle into the whole
	// document, and a snippets response whose record has no head.
	f.Add(frameBytes(9, msgFullResp, append(appendRespHeader(nil, 7), v9SnippetedFullResp...)))
	f.Add(frameBytes(9, msgSnippetsResp, append(appendRespHeader(nil, 7), v9SnippetsResp...)))
	// Wire v10: a full request and response are an eval request without
	// shards and one result list, each result under its own shard or a whole
	// handle, with its record list.
	attrs := syntheticResults()["attributes and multi-byte text"]
	f.Add(frameBytes(wireVersion, msgFull, encodeEvalReq(evalReq{query: "xml keyword", bound: 6})))
	f.Add(frameBytes(wireVersion, msgFullResp, appendFullResp(appendRespHeader(nil, 7), fullAnswer{
		terms: []string{"misérables", "✓"}, results: []*search.Result{attrs, attrs},
		handles: []handle{{shard: wholeShard, lca: 2}, {shard: 1, anchor: 1, lca: 2}},
	})))
	f.Add(frameBytes(wireVersion, msgStats, encodeStatsReq(statsReq{keywords: []string{"a", "b"}})))
	f.Add(frameBytes(wireVersion, msgStatsResp, appendStatsResp(appendRespHeader(nil, 7), statsResp{totalElements: 9, counts: []uint64{3}})))
	f.Add(frameBytes(wireVersion, msgError, encodeErrMsg(errMsg{kind: errKindPanic, msg: "boom"})))
	f.Add(frameBytes(wireVersion, msgError, encodeErrMsg(errMsg{kind: errKindSkew, msg: "moved"})))
	f.Add(frameBytes(wireVersion, msgTrees, encodeTreesReq(treesReq{
		opts: search.Options{DistinctAnchors: true}, query: "xml keyword", timeoutMillis: 900, fingerprint: 7,
		handles: []handle{{shard: 0, anchor: 3, lca: 5}, {shard: wholeShard, anchor: 0, lca: 0}},
	})))
	f.Add(frameBytes(wireVersion, msgTreesResp, appendTreesResp(appendRespHeader(nil, 7), []*search.Result{syntheticResults()["attributes and multi-byte text"]})))
	f.Add(frameBytes(wireVersion, msgSnippets, encodeTreesReq(treesReq{
		query: "xml keyword", timeoutMillis: 900, fingerprint: 7, bound: 6,
		handles: []handle{{shard: 0, anchor: 3, lca: 5}, {shard: 2, anchor: 0, lca: 1}},
	})))
	f.Add(frameBytes(wireVersion, msgSnippetsResp, appendRecords(appendRespHeader(nil, 7), recordsOf(fuzzSnippets(f)))))
	f.Add(frameBytes(wireVersion, msgComplete, encodeCompleteReq(completeReq{prefix: "xm", k: 5})))
	f.Add(frameBytes(wireVersion, msgCompleteResp, appendCompleteResp(appendRespHeader(nil, 7), []string{"xml", "xmlns"})))
	f.Add(frameBytes(wireVersion+1, msgHello, nil)) // version skew
	f.Add(frameBytes(wireVersion, msgType(200), nil))
	f.Add([]byte("XR"))               // truncated header
	f.Add([]byte("xx..............")) // bad magic
	// Oversized length claim with no body.
	big := frameBytes(wireVersion, msgEval, nil)
	binary.LittleEndian.PutUint32(big[4:8], maxFramePayload+1)
	f.Add(big)

	f.Fuzz(func(t *testing.T, data []byte) {
		mt, payload, err := readFrame(bytes.NewReader(data))
		if err != nil {
			var pe *ProtocolError
			if !errors.As(err, &pe) && !errors.Is(err, io.EOF) {
				t.Fatalf("readFrame: unclassified error %T: %v", err, err)
			}
			return
		}
		if data[2] != wireVersion {
			t.Fatalf("readFrame accepted a v%d frame", data[2])
		}
		// A structurally valid frame: every payload decoder for its type
		// must classify or accept, never panic. Decoders for both
		// directions run — a router and a server must each survive a
		// hostile peer.
		switch mt {
		case msgEval, msgFull:
			_, _ = decodeEvalReq(payload)
		case msgTrees, msgSnippets:
			_, _ = decodeTreesReq(payload)
		case msgComplete:
			_, _ = decodeCompleteReq(payload)
		case msgEvalResp, msgFullResp, msgStatsResp, msgTreesResp, msgCompleteResp, msgSnippetsResp:
			_, _, body, err := decodeRespHeader(payload)
			if err != nil {
				return
			}
			_, _ = decodeEvalResp(body, 2, 1)
			_, _ = decodeFullResp(body, 2, 2, true)
			_, _ = decodeTreesResp(body)
			_, _ = decodeSnippetsResp(body)
			_, _ = decodeCompleteResp(body)
			_, _ = decodeStatsResp(body)
		case msgStats:
			_, _ = decodeStatsReq(payload)
		case msgError:
			_, _ = decodeErrMsg(payload)
		}
	})
}

// v5EvalResp is a retired v5 eval response body: not snippeted, one shard
// (index 0, no digest bits), one result shipped as its tree record — one
// childless "r" node, no LCA, no match keywords — and no depths.
var v5EvalResp = []byte{0, 1, 0, 0, 0, 1, 1, 0, 1, 'r', 0, 0, 0}

// v7SnippetedFullResp is a retired v7 full response body: snippeted, one
// result shipped as its handle — one node, anchor and LCA at 0, no depths —
// and its snippet record, v6SnippetedEvalResp's.
var v7SnippetedFullResp = []byte{1, 1, 1, 0, 0, 1, 0, 1, 'a', 0, 0, 0, 0, 0, 0, 0, 0}

// v6SnippetedEvalResp is a retired v6 eval response body: snippeted, one
// shard (index 0, no digest bits), one result shipped as its handle — one
// node, anchor and LCA at 0, no depths — and its snippet record: a childless
// "a" node, no edges, an empty IList, no key, nothing covered or skipped.
var v6SnippetedEvalResp = []byte{1, 1, 0, 0, 0, 1, 1, 0, 0, 1, 0, 1, 'a', 0, 0, 0, 0, 0, 0, 0, 0}

// fuzzSnippets is a small real snippet set: the first snippeted answer of
// the codec fixture with two or three snippets.
func fuzzSnippets(tb testing.TB) []*core.Generated {
	for _, a := range codecAnswers(tb) {
		if n := len(a.snippets); n >= 2 && n <= 3 {
			return a.snippets
		}
	}
	return nil
}

// FuzzEvalRespDecode aims the fuzzer straight at the deepest decoders
// without requiring it to first learn the frame checksum: the scan of an
// eval or full response's shipped results — handles and depths — and of the
// snippet records they carry, for a query of terms terms, whether the
// request was search only or snippeted (an eval request's shards all one
// leading run), the scan of a snippets response's snippet records, the
// decode of a trees or snippets request, and the scan of a trees response's
// tree records. The seeds carry real answers, real snippets and real trees
// (views, projections, attribute nodes, multi-byte text), so mutation starts
// inside the records. Whatever the eval and full scans accept must take
// without panicking, whatever snippet record any scan accepts must build, and
// whatever the trees scan accepts must build to exactly what the frozen
// reference decoder makes of the same bytes.
func FuzzEvalRespDecode(f *testing.F) {
	f.Add(uint8(0), appendEvalResp(nil, evalAnswer{}))
	f.Add(uint8(1), []byte{1, 0, 0, 0, 1, 1, 0, 0, 1, 0})
	f.Add(uint8(0), []byte{1, 0, 8})     // a v3 prefilter-skipped shard: refused
	f.Add(uint8(0), v5EvalResp)          // a v5 shipped tree record: refused
	f.Add(uint8(0), v6SnippetedEvalResp) // a v6 snippet in an eval response: refused
	f.Add(uint8(0), v7SnippetedFullResp) // a v7 snippet in a full response: refused
	f.Add(uint8(0), v8EvalResp)          // a v8 eval response, no record list: refused
	f.Add(uint8(0), v9SnippetedFullResp) // a v9 full response, no result shards: refused
	f.Add(uint8(0), v9SnippetsResp)      // a v9 record, no head: refused
	// The v10 layout's own cases, for a query of no terms: a record (head,
	// then a one-node tree, an empty IList) and a shipped result (one node,
	// anchor and LCA at 0).
	cat := func(parts ...[]byte) []byte { return slices.Concat(parts...) }
	uv := func(v uint64) []byte { return binary.AppendUvarint(nil, v) }
	str := func(s string) []byte { return appendString(nil, s) }
	rec := cat(str("<a/>"), uv(0), str(""), uv(1), []byte{0}, str("a"), uv(0), uv(0), uv(0), str(""), uv(0), uv(0))
	shipped := cat(uv(1), uv(0), uv(0))
	rooted := cat(uv(1), []byte{digestRootAnchored, 0}, uv(0), uv(0)) // shard 1, root-anchored, nothing shipped
	for _, seed := range [][]byte{
		cat(uv(2), uv(0), []byte{0, 0}, uv(1), shipped, uv(1), rec, rooted), // records beside a root-anchored shard
		cat(uv(2), uv(0), []byte{0, 0}, uv(1), shipped, uv(0), rooted),      // none: accepted
		cat(uv(1), uv(9), shipped, uv(1), rec),                              // a full result outside the placement
		cat(uv(1), uv(0), uv(2), uv(1), uv(1), uv(1), rec),                  // a whole handle off the root
		cat(uv(2), uv(0), shipped, uv(3), shipped, uv(2), rec, rec),         // a whole handle and a shard's result
		cat(uv(1), uv(200), rec[1:]),                                        // an XML length past the record
		cat(uv(1), str("<a/>"), uv(0), uv(9), []byte("ab")),                 // a key cut short
		cat(uv(1), str("<a/>"), []byte{0x80}),                               // an edge count cut short
	} {
		f.Add(uint8(0), seed)
	}
	f.Add(uint8(0), appendRecords(nil, nil))
	seeded, carried, full, fullCarried, snippets, trees := 0, 0, 0, 0, 0, 0
	// Small inputs only: the fuzzer minimizes every interesting input, and a
	// 100 KB seed eats a ten-second CI budget doing it.
	const maxSeed = 4096
	for _, a := range codecAnswers(f) {
		rs, handles := shippedOf(a.evalAnswer)
		if len(rs) == 0 {
			continue
		}
		if a.snippets != nil {
			// A whole answer's snippets are mostly past the size limit: its
			// first one or two, alone, much less often.
			for _, gs := range [][]*core.Generated{a.snippets, a.snippets[:1], a.snippets[:min(2, len(a.snippets))]} {
				if body := appendRecords(nil, recordsOf(gs)); len(body) <= maxSeed {
					f.Add(uint8(len(a.terms)), body)
					snippets++
					break
				}
			}
			f.Add(uint8(0), encodeTreesReq(treesReq{opts: search.Options{DistinctAnchors: true}, query: fmt.Sprint(a.terms), timeoutMillis: 250, fingerprint: 7, bound: 6, handles: handles}))
			// The eval and full responses of a snippeted request, records and all.
			if body := appendEvalResp(nil, a.evalAnswer); len(body) <= maxSeed {
				f.Add(uint8(len(a.terms)), body)
				carried++
			}
			if body := appendFullResp(nil, a.full); a.full.records.Len() > 0 && len(body) <= maxSeed {
				f.Add(uint8(len(a.terms)), body)
				fullCarried++
			}
			continue
		}
		if body := appendEvalResp(nil, a.evalAnswer); len(body) <= maxSeed {
			f.Add(uint8(len(a.terms)), body)
			seeded++
		}
		if body := appendFullResp(nil, a.full); len(body) <= maxSeed {
			f.Add(uint8(len(a.terms)), body)
			full++
		}
		if body := appendTreesResp(nil, rs); len(body) <= maxSeed {
			f.Add(uint8(len(a.terms)), body)
			trees++
		}
	}
	if seeded < 20 || full < 20 || carried < 10 || fullCarried < 5 || snippets < 10 || trees < 20 {
		f.Fatalf("only %d eval and %d full seeds carry shipped results, %d eval and %d full seeds carry records too, %d carry snippets, and %d carry trees",
			seeded, full, carried, fullCarried, snippets, trees)
	}
	for name, r := range syntheticResults() {
		if name != "deep chain" {
			f.Add(uint8(0), appendTreesResp(nil, []*search.Result{r}))
		}
	}
	// A chain deep enough to work the scan's slot stack, small enough to seed.
	f.Add(uint8(0), append([]byte{1}, chainEncoding(300)...))
	f.Fuzz(func(t *testing.T, terms uint8, data []byte) {
		var pe *ProtocolError
		keys := make([]string, terms)
		for i := range keys {
			keys[i] = fmt.Sprint("t", i)
		}
		// take takes the results of one list, each shipped by a shard in
		// [lo, hi].
		take := func(lo, hi int32, rs []scanned) {
			at := &answerTrees{q: search.Query{Keys: keys}, handles: make([]handle, len(rs))}
			for i, taken := range at.take(rs) {
				s := rs[i]
				if sh := at.handles[i].shard; taken.Size() != int(s.nodes)-1 || at.handles[i] != s.at || sh < lo || sh > hi {
					t.Fatalf("taken result: size %d of %d nodes, handle %+v of %+v", taken.Size(), s.nodes, at.handles[i], s.at)
				}
				for _, kw := range keys {
					if d, ok := taken.MatchDepth(kw); ok && d >= int(s.nodes) {
						t.Fatalf("match depth %d in a %d-node tree", d, s.nodes)
					}
				}
			}
		}
		// build builds an accepted snippet record: the served snippet reads
		// its head — the XML as the server rendered it, which the router
		// relays and does not render again — and its tree and IList decode,
		// the edges within the tree.
		build := func(rec string) {
			served := core.NewServedSnippets(1).Serve(0, rec, nil, 0)
			g := served.Derived()
			if nodes := len(preorderOf(g.Snippet.Root)); g.Snippet.Edges >= nodes {
				t.Fatalf("snippet of %d nodes built with %d edges", nodes, g.Snippet.Edges)
			}
			if g.XML != served.XML || served.Edges != g.Snippet.Edges || served.ResultKey != g.IList.KeyValue {
				t.Fatalf("served XML/edges/key %q/%d/%q, decoded %q/%d/%q",
					served.XML, served.Edges, served.ResultKey, g.XML, g.Snippet.Edges, g.IList.KeyValue)
			}
		}
		// takeAll takes one result list and builds the records it carried,
		// refusing one that carried records it should not have.
		takeAll := func(lo, hi int32, rs []scanned, snippeted bool) {
			take(lo, hi, rs)
			for _, s := range rs {
				if (s.rec != "") != snippeted {
					t.Fatalf("a result of a list snippeted=%v scanned with record %v", snippeted, s.rec != "")
				}
				if s.rec != "" {
					build(s.rec)
				}
			}
		}
		for _, lead := range []int{-1, maxWireShards} {
			if resp, err := decodeEvalResp(data, int(terms), lead); err != nil {
				if !errors.As(err, &pe) {
					t.Fatalf("unclassified eval decode error %T: %v", err, err)
				}
			} else {
				rooted := slices.ContainsFunc(resp.shards, func(s shardResp) bool { return s.digest.RootAnchored })
				for _, sh := range resp.shards {
					takeAll(int32(sh.shard), int32(sh.shard), sh.results, lead >= 0 && !rooted)
				}
			}
		}
		// A placement of as many shards as the fixture's largest corpus.
		const shards = 4
		for _, snippeted := range []bool{false, true} {
			if rs, err := decodeFullResp(data, int(terms), shards, snippeted); err != nil {
				if !errors.As(err, &pe) {
					t.Fatalf("unclassified full decode error %T: %v", err, err)
				}
			} else {
				takeAll(wholeShard, shards-1, rs, snippeted)
			}
		}
		if recs, err := decodeSnippetsResp(data); err != nil {
			if !errors.As(err, &pe) {
				t.Fatalf("unclassified snippets decode error %T: %v", err, err)
			}
		} else {
			for _, rec := range recs {
				build(unsafeString(rec))
			}
		}
		if req, err := decodeTreesReq(data); err != nil {
			if !errors.As(err, &pe) {
				t.Fatalf("unclassified trees request decode error %T: %v", err, err)
			}
		} else if req.bound < -1 || req.bound > maxSnippetBound {
			t.Fatalf("decoded snippet bound %d", req.bound)
		}
		recs, err := decodeTreesResp(data)
		if err != nil {
			if !errors.As(err, &pe) {
				t.Fatalf("unclassified trees decode error %T: %v", err, err)
			}
			return
		}
		for _, rec := range recs {
			want, err := referenceResult(rec.enc)
			if err != nil {
				t.Fatalf("scan accepted what the reference decoder rejects: %v", err)
			}
			if err := sameResult(want, rec.build()); err != nil {
				t.Fatal(err)
			}
		}
	})
}
