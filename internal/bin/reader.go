// Package bin is the one bounds-checked byte reader the three binary formats
// decode through: XR wire payloads (internal/remote), XTIX index images
// (internal/persist) and XTSN snapshot manifests (internal/ingest). Each
// format keeps its layout, caps and error type; the rule they share lives
// here: every read is bounds-checked, the first failure sticks (later reads
// return zero values), and a count is refused before anything is allocated
// for it when it passes its cap or claims more elements than the bytes left
// could carry (Reader.Count).
package bin

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"strconv"
)

// CRC32C is the CRC-32C (Castagnoli) table every format checksums with:
// wire frames, image sections and the manifest trailer.
var CRC32C = crc32.MakeTable(crc32.Castagnoli)

// Reader decodes Data from Off. Its zero value is not usable: build one
// with NewReader, which names the format's error.
type Reader struct {
	Data []byte
	Off  int

	err  error
	wrap func(msg string) error
}

// NewReader returns a reader of data starting at off. wrap turns a failure's
// message into the format's own error; it is called once, for the first
// failure.
func NewReader(data []byte, off int, wrap func(msg string) error) Reader {
	return Reader{Data: data, Off: off, wrap: wrap}
}

// Fail records a failure unless one is already recorded.
func (r *Reader) Fail(format string, args ...any) {
	if r.err == nil {
		r.err = r.wrap(fmt.Sprintf(format, args...))
	}
}

// Err returns the first failure, or nil.
func (r *Reader) Err() error { return r.err }

// Left returns the number of bytes not yet read.
func (r *Reader) Left() int { return len(r.Data) - r.Off }

// Bytes reads n bytes in place.
func (r *Reader) Bytes(n int, what string) []byte {
	if r.err != nil {
		return nil
	}
	if n < 0 || n > r.Left() {
		r.Fail("truncated %s at offset %d (need %d bytes, %d left)", what, r.Off, n, r.Left())
		return nil
	}
	b := r.Data[r.Off : r.Off+n : r.Off+n]
	r.Off += n
	return b
}

// U8 reads one byte.
func (r *Reader) U8(what string) byte {
	if r.err != nil {
		return 0
	}
	if r.Off >= len(r.Data) {
		r.Fail("truncated %s at offset %d (need 1 byte)", what, r.Off)
		return 0
	}
	b := r.Data[r.Off]
	r.Off++
	return b
}

// U32 reads a little-endian uint32.
func (r *Reader) U32(what string) uint32 {
	if b := r.Bytes(4, what); b != nil {
		return binary.LittleEndian.Uint32(b)
	}
	return 0
}

// U64 reads a little-endian uint64.
func (r *Reader) U64(what string) uint64 {
	if b := r.Bytes(8, what); b != nil {
		return binary.LittleEndian.Uint64(b)
	}
	return 0
}

// Uvarint reads an unsigned varint.
func (r *Reader) Uvarint(what string) uint64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Uvarint(r.Data[r.Off:])
	if n <= 0 {
		r.Fail("truncated varint (%s) at offset %d", what, r.Off)
		return 0
	}
	r.Off += n
	return v
}

// Varint reads a zig-zag signed varint.
func (r *Reader) Varint(what string) int64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Varint(r.Data[r.Off:])
	if n <= 0 {
		r.Fail("truncated varint (%s) at offset %d", what, r.Off)
		return 0
	}
	r.Off += n
	return v
}

// Span reads a uvarint-length-prefixed byte string in place.
func (r *Reader) Span(what string) []byte {
	n := r.Uvarint(what)
	if r.err == nil && n > uint64(r.Left()) {
		r.Fail("%s of %d bytes exceeds the %d bytes left", what, n, r.Left())
		return nil
	}
	return r.Bytes(int(n), what)
}

// Count validates n, a count of what just read, and returns it as an int,
// or 0 once anything has failed. n may not exceed max; and when each > 0 —
// each element occupies at least each of the bytes that follow — n may not
// claim more elements than the bytes left could carry. each == 0 marks a
// number the bytes do not carry (a size, a bound, a requested k), which only
// max bounds.
func (r *Reader) Count(n uint64, what string, max uint64, each int) int {
	if r.err != nil {
		return 0
	}
	if n > max {
		r.failCount(what, n, " exceeds cap ", max)
		return 0
	}
	if each > 0 && n > uint64(r.Left()/each) {
		r.failCount(what, n, " exceeds what the bytes left carry: ", uint64(r.Left()/each))
		return 0
	}
	return int(n)
}

// failCount records a refused count. It formats without fmt: a refused count
// is the failure a hostile payload provokes at will, so it costs one
// allocation, the message, besides the format's error.
func (r *Reader) failCount(what string, n uint64, why string, limit uint64) {
	var buf [128]byte
	b := append(buf[:0], what...)
	b = append(b, " count "...)
	b = strconv.AppendUint(b, n, 10)
	b = append(b, why...)
	b = strconv.AppendUint(b, limit, 10)
	r.err = r.wrap(string(b))
}

// Done returns the first failure, or an error when bytes are left over.
func (r *Reader) Done() error {
	if r.err == nil && r.Off != len(r.Data) {
		r.Fail("%d trailing bytes", r.Left())
	}
	return r.err
}
