package persist

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"math"
	"runtime"
	"strings"
	"testing"

	"extract/internal/bin"
	"extract/internal/core"
	"extract/xmltree"
)

// TestHostileCountsRefusedBeforeAllocating sets every count an XTIX image
// carries, in turn, to claim more elements than the bytes after it hold, and
// separately to one past maxCount, with the section's checksum resealed so
// the decoder — not the checksum — meets it: each is ErrBadFormat refusing
// that count, and allocates nothing sized from it.
func TestHostileCountsRefusedBeforeAllocating(t *testing.T) {
	doc, err := xmltree.ParseString(`<shop><store id="1"><name>Brook</name><city>Houston</city></store></shop>`)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := Save(&buf, core.BuildCorpus(doc)); err != nil {
		t.Fatal(err)
	}
	good := buf.Bytes()
	if _, err := LoadBytes(good); err != nil {
		t.Fatalf("the image does not load: %v", err)
	}

	// section returns the offset and length of section i.
	table := len(magic) + 2
	section := func(img []byte, i int) (int, int) {
		off := table + 8*numSections
		for j := 0; j < i; j++ {
			off += int(binary.LittleEndian.Uint32(img[table+8*j:]))
		}
		return off, int(binary.LittleEndian.Uint32(img[table+8*i:]))
	}
	u32 := func(sec, at int) int {
		off, _ := section(good, sec)
		return int(binary.LittleEndian.Uint32(good[off+at:]))
	}
	for _, tc := range []struct {
		what string
		sec  int
		at   int // the count's offset in its section
	}{
		{"subset", secMeta, 0},
		{"node", secMeta, 4 + u32(secMeta, 0)},
		{"string", secStrings, 0},
		{"string blob", secStrings, 4},
		{"keyword", secPostings, 0},
		{"posting", secPostings, 4 + 8*u32(secPostings, 0)},
		{"label", secAux, 0},
		{"key", secAux, 4 + 5*u32(secAux, 0)},
	} {
		for how, claim := range map[string]uint32{"past the bytes left": maxCount, "past its cap": maxCount + 1} {
			img := append([]byte(nil), good...)
			off, n := section(img, tc.sec)
			binary.LittleEndian.PutUint32(img[off+tc.at:], claim)
			binary.LittleEndian.PutUint32(img[table+8*tc.sec+4:], crc32.Checksum(img[off:off+n], bin.CRC32C))
			_, err := LoadBytes(img)
			if !errors.Is(err, ErrBadFormat) {
				t.Errorf("%s count %s: err = %v, want ErrBadFormat", tc.what, how, err)
				continue
			} else if !strings.Contains(err.Error(), tc.what+" count") {
				t.Errorf("%s count %s: err = %v, want the count refused", tc.what, how, err)
			}
			if n := allocBytes(func() { _, _ = LoadBytes(img) }); n > 4<<10 {
				t.Errorf("%s count %s: refusing it allocated %d bytes", tc.what, how, n)
			}
		}
	}
}

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
