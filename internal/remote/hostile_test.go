package remote

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math"
	"runtime"
	"strings"
	"testing"

	"extract/internal/search"
)

// allocBytes returns the bytes one call of f allocates: the least of a few
// runs, so an allocation of some other goroutine's does not count.
func allocBytes(f func()) uint64 {
	least := uint64(math.MaxUint64)
	for range 5 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		f()
		runtime.ReadMemStats(&after)
		least = min(least, after.TotalAlloc-before.TotalAlloc)
	}
	return least
}

// hostileBound is what refusing a count may allocate: the error, nothing
// sized from the count.
const hostileBound = 4 << 10

// TestTruncatedFrameCostsWhatArrived: a frame whose header claims the
// largest payload and whose connection ends ten bytes in is a
// *ProtocolError that costs about what arrived, not the claimed 64 MiB; a
// long payload that does arrive whole reads byte for byte.
func TestTruncatedFrameCostsWhatArrived(t *testing.T) {
	hdr := frameBytes(wireVersion, msgEvalResp, nil)
	binary.LittleEndian.PutUint32(hdr[4:8], maxFramePayload)
	frame := append(hdr, make([]byte, 10)...)
	var pe *ProtocolError
	if _, _, err := readFrame(bytes.NewReader(frame)); !errors.As(err, &pe) {
		t.Fatalf("truncated frame: err = %v, want a *ProtocolError", err)
	}
	if n := allocBytes(func() { _, _, _ = readFrame(bytes.NewReader(frame)) }); n >= 1<<20 {
		t.Fatalf("a frame claiming %d bytes that sent 10 cost %d bytes", maxFramePayload, n)
	}

	payload := make([]byte, 5*exactPayload+123)
	for i := range payload {
		payload[i] = byte(i * 7)
	}
	whole := frameBytes(wireVersion, msgEvalResp, payload)
	mt, got, err := readFrame(bytes.NewReader(whole))
	if err != nil || mt != msgEvalResp || !bytes.Equal(got, payload) {
		t.Fatalf("a %d-byte frame read back as %v, %d bytes, %v", len(payload), mt, len(got), err)
	}
	for _, cut := range []int{exactPayload - 1, exactPayload, 3 * exactPayload, len(payload) - 1} {
		_, _, err := readFrame(bytes.NewReader(whole[:frameHeaderLen+cut]))
		if !errors.As(err, &pe) {
			t.Errorf("a %d-byte payload cut at %d: err = %v, want a *ProtocolError", len(payload), cut, err)
		}
	}
}

// TestHostileCountsRefusedBeforeAllocating sets every count each XR decoder
// reads, in turn, to claim more elements than the bytes after it hold (when
// its elements are bytes of the payload), and separately to one past its
// cap: each is a *ProtocolError that allocates nothing sized from the count.
func TestHostileCountsRefusedBeforeAllocating(t *testing.T) {
	cat := func(parts ...[]byte) []byte {
		var b []byte
		for _, p := range parts {
			b = append(b, p...)
		}
		return b
	}
	uv := func(v uint64) []byte { return binary.AppendUvarint(nil, v) }
	str := func(s string) []byte { return appendString(nil, s) }
	leaf := cat(uv(1), []byte{0}, str("a"), uv(0)) // a one-node tree
	tail := make([]byte, 16)                       // a few bytes after the count

	opts := appendOptions(nil, search.Options{MaxResults: 9})
	reqHead := cat(opts, str("store texas"), uv(250))
	treesHead := binary.LittleEndian.AppendUint64(cat(reqHead), 7)
	oneItem := cat([]byte{0}, str("texas"), str(""), str(""), str(""), binary.AppendVarint(nil, -1), make([]byte, 8))
	head := cat(str("<a/>"), uv(0), str("")) // a snippet record's XML, edges and key
	snippetHead := cat(uv(1), head, leaf)
	keyed := cat(snippetHead, uv(1), oneItem, uv(0), str(""))

	evalResp := func(b []byte) error { _, err := decodeEvalResp(b, 1, 1); return err }
	fullResp := func(b []byte) error { _, err := decodeFullResp(b, 1, 1, true); return err }
	evalReq := func(b []byte) error { _, err := decodeEvalReq(b); return err }
	treesReq := func(b []byte) error { _, err := decodeTreesReq(b); return err }
	treesResp := func(b []byte) error { _, err := decodeTreesResp(b); return err }
	snippetsResp := func(b []byte) error { _, err := decodeSnippetsResp(b); return err }
	completeReq := func(b []byte) error { _, err := decodeCompleteReq(b); return err }
	completeResp := func(b []byte) error { _, err := decodeCompleteResp(b); return err }
	statsReq := func(b []byte) error { _, err := decodeStatsReq(b); return err }
	statsResp := func(b []byte) error { _, err := decodeStatsResp(b); return err }

	for _, tc := range []struct {
		name   string // the message
		what   string // the count, as its decoder names it
		before []byte // the payload up to the count
		max    uint64
		bytes  bool // the count's elements are bytes of the payload
		decode func([]byte) error
	}{
		{"eval request", "shard", reqHead, maxWireShards, true, evalReq},
		{"eval request", "snippet bound", cat(reqHead, uv(0)), maxSnippetBound + 1, false, evalReq},
		{"eval response", "shard response", nil, maxWireShards, true, evalResp},
		{"eval response", "keyword", cat(uv(1), uv(0), []byte{digestHasFree}), maxWireStrings, true, evalResp},
		{"eval response", "result", cat(uv(1), uv(0), []byte{0}, uv(0)), maxWireResults, true, evalResp},
		{"eval response", "tree node", cat(uv(1), uv(0), []byte{0}, uv(0), uv(1)), maxTreeNodes, false, evalResp},
		{"eval response", "snippet record", cat(uv(1), uv(0), []byte{0}, uv(0), uv(0)), maxWireResults, true, evalResp},
		{"full response", "result", nil, maxWireResults, true, fullResp},
		{"full response", "tree node", cat(uv(1), uv(1)), maxTreeNodes, false, fullResp},
		{"full response", "snippet record", uv(0), maxWireResults, true, fullResp},
		{"trees request", "snippet bound", treesHead, maxSnippetBound + 1, false, treesReq},
		{"trees request", "handle", cat(treesHead, uv(0)), maxWireResults, true, treesReq},
		{"trees response", "tree", nil, maxWireResults, true, treesResp},
		{"trees response", "tree node", uv(1), maxTreeNodes, true, treesResp},
		{"trees response", "match keyword", cat(uv(1), leaf, uv(0)), maxWireStrings, true, treesResp},
		{"trees response", "match ordinal", cat(uv(1), leaf, uv(0), uv(1), str("kw")), 1, true, treesResp},
		{"snippets response", "snippet record", nil, maxWireResults, true, snippetsResp},
		{"snippets response", "tree node", cat(uv(1), head), maxTreeNodes, true, snippetsResp},
		{"snippets response", "ilist item", snippetHead, maxWireStrings, true, snippetsResp},
		{"snippets response", "return entity", cat(snippetHead, uv(0)), maxWireStrings, true, snippetsResp},
		{"snippets response", "covered item", keyed, 1, true, snippetsResp},
		{"snippets response", "skipped item", cat(keyed, uv(0)), 1, true, snippetsResp},
		{"complete request", "completion", str("sto"), maxWireResults, false, completeReq},
		{"complete response", "completion", nil, maxWireResults, true, completeResp},
		{"stats request", "keyword", nil, maxWireStrings, true, statsReq},
		{"stats response", "count", uv(99), maxWireStrings, true, statsResp},
	} {
		claims := map[string][]byte{"past its cap": cat(tc.before, uv(tc.max+1), tail)}
		if tc.bytes {
			// The cap itself, followed by fewer bytes than that many
			// elements take: more than the payload could carry.
			after := tail
			if tc.max <= uint64(len(tail)) {
				after = nil
			}
			claims["past the bytes left"] = cat(tc.before, uv(tc.max), after)
		}
		for how, payload := range claims {
			var pe *ProtocolError
			if err := tc.decode(payload); !errors.As(err, &pe) {
				t.Errorf("%s, %s count %s: err = %v, want a *ProtocolError", tc.name, tc.what, how, err)
				continue
			} else if !strings.Contains(pe.Reason, tc.what+" count") {
				t.Errorf("%s, %s count %s: err = %v, want the count refused", tc.name, tc.what, how, err)
			}
			if n := allocBytes(func() { _ = tc.decode(payload) }); n > hostileBound {
				t.Errorf("%s, %s count %s: refusing it allocated %d bytes", tc.name, tc.what, how, n)
			}
		}
	}
}
