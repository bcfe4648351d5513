package remote

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"io"
	"slices"
	"testing"

	"extract/internal/search"
)

// frameBytes builds one well-formed frame for seeding.
func frameBytes(version byte, t msgType, payload []byte) []byte {
	var hdr [frameHeaderLen]byte
	hdr[0], hdr[1] = frameMagic0, frameMagic1
	hdr[2] = version
	hdr[3] = byte(t)
	binary.LittleEndian.PutUint32(hdr[4:8], uint32(len(payload)))
	binary.LittleEndian.PutUint32(hdr[8:12], crc32.Checksum(payload, crcTable))
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
	})
	f.Add(frameBytes(wireVersion, msgEval, appendTraceID(evalPayload, 42)))
	// Retired wire v1: the greeting, a request without its trace ID, and the
	// negotiation request. All must now be refused as version skew.
	f.Add(frameBytes(1, msgHello, retiredGreeting))
	f.Add(frameBytes(1, msgEval, evalPayload))
	f.Add(frameBytes(1, msgHello, []byte{2}))
	// Retired wire v2: the greeting and an eval request without a bound.
	f.Add(frameBytes(2, msgHello, retiredGreeting))
	f.Add(frameBytes(2, msgEval, appendTraceID(evalPayload[:len(evalPayload)-1], 42)))
	// Retired wire v3: the greeting, an eval request, and its digest request
	// (type 4 then, the full request's type now).
	f.Add(frameBytes(3, msgHello, retiredGreeting))
	f.Add(frameBytes(3, msgEval, appendTraceID(evalPayload, 42)))
	f.Add(frameBytes(3, msgType(4), appendTraceID(evalPayload, 42)))
	// Retired wire v4: the greeting with its payload, an eval request, and
	// the ping (whose type number is the error message's now).
	f.Add(frameBytes(4, msgHello, retiredGreeting))
	f.Add(frameBytes(4, msgEval, appendTraceID(evalPayload, 42)))
	f.Add(frameBytes(4, v4Ping, nil))
	f.Add(frameBytes(wireVersion, msgFull, appendTraceID(encodeEvalReq(evalReq{query: "xml keyword", bound: 6}), 42)))
	f.Add(frameBytes(wireVersion, msgStats, encodeStatsReq(statsReq{keywords: []string{"a", "b"}})))
	f.Add(frameBytes(wireVersion, msgStatsResp, appendStatsResp(appendRespHeader(nil, 7), statsResp{totalElements: 9, counts: []uint64{3}})))
	f.Add(frameBytes(wireVersion, msgError, encodeErrMsg(errMsg{kind: errKindPanic, msg: "boom"})))
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
		case msgEvalResp, msgFullResp, msgStatsResp:
			_, _, body, err := decodeRespHeader(payload)
			if err != nil {
				return
			}
			_, _ = decodeEvalResp(body)
			_, _ = decodeFullResp(body)
			_, _ = decodeStatsResp(body)
		case msgStats:
			_, _ = decodeStatsReq(payload)
		case msgError:
			_, _ = decodeErrMsg(payload)
		}
	})
}

// FuzzEvalRespDecode aims the fuzzer straight at the deepest decoder — the
// scan of shipped results, their tree records, depths and snippet records —
// without requiring the fuzzer to first learn the frame checksum. The seeds
// carry real result trees (views, projections, attribute nodes, multi-byte
// text) and real snippets, so mutation starts inside the node and IList
// records. Whatever the scan accepts must take, build and snippet without
// panicking, and build to exactly what the frozen reference decoder makes of
// the same bytes.
func FuzzEvalRespDecode(f *testing.F) {
	f.Add(appendEvalResp(nil, evalAnswer{}))
	f.Add(appendEvalResp(nil, evalAnswer{snippeted: true}))
	f.Add([]byte{0, 1, 0, 0, 0, 1})
	f.Add([]byte{0, 1, 0, 8}) // a v3 prefilter-skipped shard: refused
	seeded, snippeted := 0, 0
	seed := func(a evalAnswer) {
		results := 0
		for _, s := range a.shards {
			results += len(s.results)
		}
		// Small responses only: the fuzzer minimizes every interesting
		// input, and a 100 KB seed eats a ten-second CI budget doing it.
		if body := appendEvalResp(nil, a); results > 0 && len(body) <= 4096 {
			f.Add(body)
			seeded++
			if a.snippeted {
				snippeted++
			}
		}
	}
	for _, a := range codecAnswers(f) {
		seed(a)
		// A snippeted answer of three shards is mostly past the size limit:
		// its first shard's share with results, alone, much less often.
		if a.snippeted && len(a.shards) > 1 {
			if i := slices.IndexFunc(a.shards, func(s shardAnswer) bool { return len(s.results) > 0 }); i >= 0 {
				seed(evalAnswer{snippeted: true, shards: a.shards[i : i+1]})
			}
		}
	}
	if seeded < 20 || snippeted < 10 {
		f.Fatalf("only %d seeds carry result trees, %d of them snippets", seeded, snippeted)
	}
	for name, r := range syntheticResults() {
		if name != "deep chain" {
			f.Add(appendEvalResp(nil, evalAnswer{shards: []shardAnswer{{results: []*search.Result{r}}}}))
		}
	}
	// A chain deep enough to work the scan's slot stack, small enough to seed.
	f.Add(append([]byte{0, 1, 0, 0, 0, 1}, chainEncoding(300)...))
	f.Fuzz(func(t *testing.T, data []byte) {
		resp, err := decodeEvalResp(data)
		if err != nil {
			var pe *ProtocolError
			if !errors.As(err, &pe) {
				t.Fatalf("unclassified decode error %T: %v", err, err)
			}
			return
		}
		for _, sh := range resp.shards {
			for _, s := range sh.results {
				want, err := referenceResult(s.enc)
				if err != nil {
					t.Fatalf("scan accepted what the reference decoder rejects: %v", err)
				}
				if err := sameResult(want, s.build()); err != nil {
					t.Fatal(err)
				}
				taken := s.take(false)
				if err := sameResult(want, taken.Tree()); err != nil {
					t.Fatalf("taken result: %v", err)
				}
				if taken.Size() != want.Size() {
					t.Fatalf("taken result has size %d, its tree %d", taken.Size(), want.Size())
				}
				if s.snippet != nil {
					if g := buildSnippet(s.snippet, nil, 0); g.Snippet.Edges >= subtreeSize(g.Snippet.Root) {
						t.Fatalf("snippet of %d nodes built with %d edges", subtreeSize(g.Snippet.Root), g.Snippet.Edges)
					}
				}
			}
		}
	})
}
