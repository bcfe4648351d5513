package bin

import (
	"encoding/binary"
	"errors"
	"strings"
	"testing"
)

// errFormat stands for a format's own error; wrapped records every message
// wrap was asked to turn into one.
var errFormat = errors.New("format")

func newTestReader(data []byte, off int) (*Reader, *[]string) {
	var wrapped []string
	r := NewReader(data, off, func(msg string) error {
		wrapped = append(wrapped, msg)
		return errors.Join(errFormat, errors.New(msg))
	})
	return &r, &wrapped
}

func TestReaderReads(t *testing.T) {
	b := []byte{0xff, 7}
	b = binary.LittleEndian.AppendUint32(b, 0xdeadbeef)
	b = binary.LittleEndian.AppendUint64(b, 1<<60+3)
	b = binary.AppendUvarint(b, 300)
	b = binary.AppendVarint(b, -5)
	b = binary.AppendUvarint(b, 3)
	b = append(b, "abc"...)
	b = append(b, 1, 2)

	r, wrapped := newTestReader(b, 1)
	if got := r.U8("u8"); got != 7 {
		t.Errorf("U8 = %d, want 7", got)
	}
	if got := r.U32("u32"); got != 0xdeadbeef {
		t.Errorf("U32 = %#x", got)
	}
	if got := r.U64("u64"); got != 1<<60+3 {
		t.Errorf("U64 = %d", got)
	}
	if got := r.Uvarint("uvarint"); got != 300 {
		t.Errorf("Uvarint = %d", got)
	}
	if got := r.Varint("varint"); got != -5 {
		t.Errorf("Varint = %d", got)
	}
	span := r.Span("span")
	if string(span) != "abc" || &span[0] != &b[len(b)-5] {
		t.Errorf("Span = %q, want abc read in place", span)
	}
	if got := r.Bytes(2, "tail"); string(got) != "\x01\x02" || cap(got) != 2 {
		t.Errorf("Bytes = %v (cap %d), want [1 2] capped at its end", got, cap(got))
	}
	if r.Left() != 0 || r.Err() != nil || r.Done() != nil {
		t.Errorf("after every read: Left %d, Err %v, Done %v", r.Left(), r.Err(), r.Done())
	}
	if len(*wrapped) != 0 {
		t.Errorf("wrap called for %q without a failure", *wrapped)
	}
}

// TestReaderFirstFailureSticks: after the first failure every read returns a
// zero value and consumes nothing, and the failure reported is the first.
func TestReaderFirstFailureSticks(t *testing.T) {
	r, wrapped := newTestReader([]byte{1, 2, 3, 0x80}, 3)
	if got := r.U32("short u32"); got != 0 {
		t.Fatalf("short U32 = %d", got)
	}
	first := r.Err()
	if !errors.Is(first, errFormat) || !strings.Contains(first.Error(), "short u32") {
		t.Fatalf("first failure = %v, want the format's error naming the read", first)
	}
	r.Off = 0 // data left to read, yet every read fails
	if r.U8("a") != 0 || r.U32("b") != 0 || r.U64("c") != 0 || r.Uvarint("d") != 0 || r.Varint("e") != 0 ||
		r.Span("f") != nil || r.Bytes(1, "g") != nil || r.Count(1, "h", 10, 0) != 0 {
		t.Error("a read after the failure returned a value")
	}
	r.Fail("later failure")
	if r.Off != 0 {
		t.Errorf("reads after the failure moved Off to %d", r.Off)
	}
	if r.Err() != first || r.Done() != first {
		t.Errorf("Err = %v, Done = %v, want the first failure %v", r.Err(), r.Done(), first)
	}
	if len(*wrapped) != 1 {
		t.Errorf("wrap called %d times (%q), want once", len(*wrapped), *wrapped)
	}
}

// TestReaderFailures: each kind of failure is the format's error, made by
// one call of wrap.
func TestReaderFailures(t *testing.T) {
	for _, tc := range []struct {
		name string
		data []byte
		read func(r *Reader)
		want string
	}{
		{"truncated u8", nil, func(r *Reader) { r.U8("flags") }, "flags"},
		{"truncated u64", make([]byte, 7), func(r *Reader) { r.U64("hash") }, "hash"},
		{"truncated uvarint", []byte{0x80, 0x80}, func(r *Reader) { r.Uvarint("length") }, "length"},
		{"overlong uvarint", []byte{0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 1}, func(r *Reader) { r.Uvarint("length") }, "length"},
		{"truncated varint", []byte{0x80}, func(r *Reader) { r.Varint("id") }, "id"},
		{"span past the bytes left", []byte{4, 'a', 'b', 'c'}, func(r *Reader) { r.Span("name") }, "4 bytes exceeds the 3 bytes left"},
		{"huge span", binary.AppendUvarint(nil, 1<<62), func(r *Reader) { r.Span("name") }, "name"},
		{"negative Bytes", []byte{1, 2, 3}, func(r *Reader) { r.Bytes(-1, "slab") }, "need -1 bytes"},
		{"Bytes past the end", []byte{1, 2, 3}, func(r *Reader) { r.Bytes(4, "slab") }, "need 4 bytes, 3 left"},
		{"trailing bytes", []byte{1, 2, 3}, func(r *Reader) { r.U8("x"); r.Done() }, "2 trailing bytes"},
	} {
		r, wrapped := newTestReader(tc.data, 0)
		tc.read(r)
		err := r.Err()
		if !errors.Is(err, errFormat) || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: err = %v, want the format's error saying %q", tc.name, err, tc.want)
		}
		if len(*wrapped) != 1 {
			t.Errorf("%s: wrap called %d times, want once", tc.name, len(*wrapped))
		}
	}
}

// TestReaderCount pins the one count rule at its boundaries: a count may
// reach its cap and, with each > 0, exactly the elements the bytes left can
// carry; one more of either is refused. each == 0 is bounded by the cap
// alone.
func TestReaderCount(t *testing.T) {
	data := make([]byte, 10) // 10 bytes left: 3 elements of 3, 10 of 1
	for _, tc := range []struct {
		n, max uint64
		each   int
		ok     bool
	}{
		{3, 100, 3, true},
		{4, 100, 3, false},
		{10, 100, 1, true},
		{11, 100, 1, false},
		{5, 5, 1, true},
		{6, 5, 1, false},
		{1 << 40, 1 << 50, 0, true},
		{1 << 40, 1<<40 - 1, 0, false},
		{0, 0, 7, true},
		{1<<64 - 1, 1<<64 - 1, 1, false},
	} {
		r, wrapped := newTestReader(data, 0)
		got := r.Count(tc.n, "thing", tc.max, tc.each)
		switch {
		case tc.ok && (got != int(tc.n) || r.Err() != nil):
			t.Errorf("Count(%d, max %d, each %d) = %d, %v; want accepted", tc.n, tc.max, tc.each, got, r.Err())
		case !tc.ok && (got != 0 || !errors.Is(r.Err(), errFormat) || len(*wrapped) != 1):
			t.Errorf("Count(%d, max %d, each %d) = %d, %v; want refused once", tc.n, tc.max, tc.each, got, r.Err())
		}
		if r.Off != 0 {
			t.Errorf("Count moved Off to %d", r.Off)
		}
	}
}
