// Package remote makes the serving tier span processes: a shard server
// (Server) owns a subset of a snapshot's shards and answers per-shard
// evaluation, whole-document and statistics calls over a small
// length-prefixed, checksummed wire protocol; a stateless router (Router)
// implements serve.Backend over N-way replica groups of such servers, so
// the facade and the serving layer (worker pool, query cache, deadlines,
// telemetry) drive a distributed corpus exactly as they drive a local one.
//
// The design goal is answer transparency, not a general RPC system. The
// sharded-query protocol lives in internal/shard and this package only
// carries it: the router runs shard.Merge — the very function the
// in-process corpus runs — over rounds that are remote calls, a shard
// server answers each call with the shard.Corpus method for that round and
// snippets the results it ships with the local snippet fan-out
// (shard.Snippets), and results and snippets travel as lossless encodings,
// so a distributed query is byte-identical to a local one — the property the
// equivalence tests pin. The router keeps each result it answers with as its
// encoding and builds the tree only when something reads it
// (search.Result.Tree).
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
)

// Wire framing: every message is one frame,
//
//	magic "XR" (2) | version (1) | type (1) | payload length (4, LE) |
//	payload CRC-32C (4, LE) | payload
//
// The length is validated against maxFramePayload before any allocation
// and the checksum before any payload parsing, so a corrupt, truncated or
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
	wireVersion = 4

	frameHeaderLen = 12

	// maxFramePayload bounds one frame (64 MiB). Result sets are bounded
	// by MaxResults in practice; the cap exists so a corrupt length field
	// cannot OOM the reader.
	maxFramePayload = 64 << 20
)

// msgType discriminates frame payloads.
type msgType uint8

const (
	msgHello msgType = iota + 1 // server → router greeting on accept
	msgEval                     // router → server: evaluate shard subset
	msgEvalResp
	msgFull // router → server: whole-document fallback evaluation
	msgFullResp
	msgStats // router → server: global df + element count (ranking)
	msgStatsResp
	msgPing // router → server: health probe
	msgPong
	msgError // server → router: classified failure
)

var crcTable = crc32.MakeTable(crc32.Castagnoli)

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
	binary.LittleEndian.PutUint32(hdr[8:12], crc32.Checksum(payload, crcTable))
	if _, err := w.Write(hdr[:]); err != nil {
		return err
	}
	_, err := w.Write(payload)
	return err
}

// readFrame reads one framed message, validating magic, version, length
// and checksum before returning the payload. Malformed frames return a
// *ProtocolError; a cleanly closed connection returns io.EOF.
func readFrame(r io.Reader) (msgType, []byte, error) { return readFrameInto(r, nil) }

// readFrameInto is readFrame reading the payload into buf when it is large
// enough, and into a fresh allocation otherwise.
func readFrameInto(r io.Reader, buf []byte) (msgType, []byte, error) {
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
	if t < msgHello || t > msgError {
		return 0, nil, protocolErrf("unknown message type %d", hdr[3])
	}
	n := binary.LittleEndian.Uint32(hdr[4:8])
	if n > maxFramePayload {
		return 0, nil, protocolErrf("frame payload length %d exceeds cap %d", n, maxFramePayload)
	}
	payload := buf[:0]
	if cap(payload) < int(n) {
		payload = make([]byte, n)
	}
	payload = payload[:n]
	if _, err := io.ReadFull(r, payload); err != nil {
		return 0, nil, protocolErrf("truncated frame payload: %v", err)
	}
	if sum := crc32.Checksum(payload, crcTable); sum != binary.LittleEndian.Uint32(hdr[8:12]) {
		return 0, nil, protocolErrf("frame checksum mismatch")
	}
	return t, payload, nil
}
