// Package remote makes the serving tier span processes: a shard server
// (Server) owns a subset of a snapshot's shards and answers per-shard
// evaluation, whole-document, snippet, tree, completion and statistics calls
// over a small length-prefixed, checksummed wire protocol; a stateless router
// (Router) implements serve.Backend over N-way replica groups of such
// servers, so the facade and the serving layer (worker pool, query cache,
// deadlines, telemetry) drive a distributed corpus exactly as they drive a
// local one.
//
// The design goal is answer transparency, not a general RPC system. The
// sharded-query protocol lives in internal/shard and this package only
// carries it: the router runs shard.Merge — the very function the
// in-process corpus runs — over rounds that are remote calls, a shard
// server answers each call with the shard.Corpus method for that round, and
// snippets are made by the local snippet fan-out (shard.Snippets) on the
// server that holds the result, so a distributed query is byte-identical to
// a local one — the property the equivalence tests pin. A result shipped by
// the per-shard round or the whole-document round is a handle — its shard
// and preorder positions there, or for the one result anchored at the root a
// whole handle into the whole document, its size and its match depths —
// never a tree. A snippet is rendered where its result lives and travels as
// its record (internal/record), its XML first, so a router renders nothing.
// It travels with its result when the result is sure to win: a server
// snippets, inside its eval answer, the results it ships for the request's
// leading run of shards (shard.LeadingRun), whose cut is the global cut's,
// unless one of its shards is root-anchored, and inside its full answer
// every result, the full answer being the answer. Once the merge has cut,
// the router asks for the snippets of the other results it kept by handle —
// one call to each group holding some of them, from a server still on the
// answer's generation — so only kept results get snippets, save the eval
// round's of a query that takes round two, which are discarded. Trees are
// fetched the same way, by handle (any replica for a whole handle): the
// router answers with deferred results (search.Result.Tree), one batch an
// answer, and the first read of any tree of an answer fetches that answer's
// trees, once: the batch's guard (search.Batch) runs the fetch, and the
// answer (answerTrees) only fetches. The trees travel as lossless encodings
// and build to exactly the local results (record.Reader.BuildNodes, through
// the one preorder linker, xmltree.Linker).
//
// Placement is content-addressed: every shard's manifest content hash
// (ingest.ShardEntry.ContentHash) is rendezvous-hashed over the configured
// replica groups, so identical content lands on the same group on every
// router, with no coordination state. Each group member serves the same
// shard subset; the router health-checks replicas with a failure-counting
// circuit breaker and fails a dead replica's calls over to its peer.
package remote

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"

	"extract/internal/bin"
)

// Wire framing: every message is one frame,
//
//	magic "XR" (2) | version (1) | type (1) | payload length (4, LE) |
//	payload CRC-32C (4, LE) | payload
//
// The length is validated against maxFramePayload, and a long payload is
// read as its bytes arrive, so a truncated frame costs about what was sent;
// the checksum is verified before any payload parsing. A payload is then
// decoded through bin.Reader (codec.go), so a corrupt, truncated or
// version-skewed frame is rejected as a *ProtocolError — classified,
// never a panic or an unbounded allocation (the frame-decoder fuzz target
// pins this).

const (
	frameMagic0 = 'X'
	frameMagic1 = 'R'

	// wireVersion is the one protocol revision this build speaks: every
	// frame is written at it and a frame at any other version is refused
	// as version skew. A payload layout change bumps wireVersion; router
	// and shard servers are rolled together.
	wireVersion = 10

	frameHeaderLen = 12

	// maxFramePayload bounds one frame (64 MiB). Result sets are bounded
	// by MaxResults in practice; the cap exists so a corrupt length field
	// cannot OOM the reader.
	maxFramePayload = 64 << 20
)

// msgType discriminates frame payloads.
type msgType uint8

const (
	msgHello msgType = iota + 1 // server → router greeting on accept, empty
	msgEval                     // router → server: evaluate shard subset
	msgEvalResp
	msgFull // router → server: whole-document fallback evaluation
	msgFullResp
	msgStats // router → server: global df + element count (ranking)
	msgStatsResp
	msgError // server → router: classified failure
	msgTrees // router → server: result trees by handle
	msgTreesResp
	msgComplete // router → server: keyword completion (Suggest)
	msgCompleteResp
	msgSnippets // router → server: snippets of kept results by handle
	msgSnippetsResp
)

// ProtocolError is a malformed, corrupt or version-skewed wire frame (or
// payload). It is a classification, not a transport failure: the
// connection that produced it is poisoned and must be closed, and the
// router treats it as grounds for failover to a peer replica.
type ProtocolError struct {
	Reason string
}

func (e *ProtocolError) Error() string { return "remote: protocol error: " + e.Reason }

func protocolErrf(format string, args ...any) error {
	return &ProtocolError{Reason: fmt.Sprintf(format, args...)}
}

// writeFrame writes one framed message.
func writeFrame(w io.Writer, t msgType, payload []byte) error {
	if len(payload) > maxFramePayload {
		return protocolErrf("oversized outgoing frame (%d bytes)", len(payload))
	}
	var hdr [frameHeaderLen]byte
	hdr[0], hdr[1] = frameMagic0, frameMagic1
	hdr[2] = wireVersion
	hdr[3] = byte(t)
	binary.LittleEndian.PutUint32(hdr[4:8], uint32(len(payload)))
	binary.LittleEndian.PutUint32(hdr[8:12], crc32.Checksum(payload, bin.CRC32C))
	if _, err := w.Write(hdr[:]); err != nil {
		return err
	}
	_, err := w.Write(payload)
	return err
}

// readFrame reads one framed message, validating magic, version, length
// and checksum before returning the payload. Malformed frames return a
// *ProtocolError; a cleanly closed connection returns io.EOF. The payload is
// a fresh allocation the collector owns: records built over it alias it, so
// nothing may reuse it.
func readFrame(r io.Reader) (msgType, []byte, error) {
	var hdr [frameHeaderLen]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		if errors.Is(err, io.ErrUnexpectedEOF) {
			return 0, nil, protocolErrf("truncated frame header")
		}
		return 0, nil, err
	}
	if hdr[0] != frameMagic0 || hdr[1] != frameMagic1 {
		return 0, nil, protocolErrf("bad frame magic %#x%x", hdr[0], hdr[1])
	}
	if ver := hdr[2]; ver != wireVersion {
		return 0, nil, protocolErrf("protocol version skew: peer speaks v%d, this build v%d", ver, wireVersion)
	}
	t := msgType(hdr[3])
	if t < msgHello || t > msgSnippetsResp {
		return 0, nil, protocolErrf("unknown message type %d", hdr[3])
	}
	n := binary.LittleEndian.Uint32(hdr[4:8])
	if n > maxFramePayload {
		return 0, nil, protocolErrf("frame payload length %d exceeds cap %d", n, maxFramePayload)
	}
	payload, err := readPayload(r, int(n))
	if err != nil {
		return 0, nil, protocolErrf("truncated frame payload: %v", err)
	}
	if sum := crc32.Checksum(payload, bin.CRC32C); sum != binary.LittleEndian.Uint32(hdr[8:12]) {
		return 0, nil, protocolErrf("frame checksum mismatch")
	}
	return t, payload, nil
}

// exactPayload is the largest payload read into one allocation of its claimed
// length — every routed query's. A longer one grows, doubling, as its bytes
// arrive, so a peer that claims 64 MiB and sends ten bytes costs 64 KiB.
const exactPayload = 64 << 10

// readPayload reads an n-byte payload.
func readPayload(r io.Reader, n int) ([]byte, error) {
	payload := make([]byte, min(n, exactPayload))
	for read := 0; ; {
		if _, err := io.ReadFull(r, payload[read:]); err != nil {
			return nil, err
		}
		if read = len(payload); read == n {
			return payload, nil
		}
		payload = append(payload, make([]byte, min(n-read, read))...)
	}
}
