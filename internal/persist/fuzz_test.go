package persist

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"testing"

	"extract/internal/core"
	"extract/internal/gen"
)

// FuzzLoad feeds arbitrary bytes to the image decoder: it must reject or
// accept without panicking, anything accepted must carry the one supported
// version and be a consistent corpus (document finalized, index present),
// and the images of retired versions seeded below must be rejected.
func FuzzLoad(f *testing.F) {
	c := core.BuildCorpus(gen.Figure5Corpus())
	var buf bytes.Buffer
	if err := Save(&buf, c); err != nil {
		f.Fatal(err)
	}
	good := buf.Bytes()
	f.Add(good)
	f.Add([]byte{})
	f.Add([]byte("XTIX"))
	f.Add(good[:len(good)/3])
	mut := append([]byte(nil), good...)
	for i := 8; i < len(mut); i += 31 {
		mut[i] ^= 0x55
	}
	f.Add(mut)

	for _, name := range []string{"legacy", "packed", "checked", "prefilter", "v5"} {
		retired, err := os.ReadFile(filepath.Join("testdata", "figure1."+name+".golden"))
		if err != nil {
			f.Fatal(err)
		}
		f.Add(retired)
		f.Add(retired[:len(retired)/2])
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		c, err := Load(bytes.NewReader(data))
		if err != nil {
			if !errors.Is(err, ErrBadFormat) {
				t.Fatalf("unclassified load error: %v", err)
			}
			return
		}
		if data[len(magic)] != version {
			t.Fatalf("accepted an image of version %d", data[len(magic)])
		}
		if c.Doc == nil || c.Index == nil || c.Cls == nil || c.Keys == nil {
			t.Fatal("accepted corpus with nil artifacts")
		}
		if c.Doc.Root != nil && c.Doc.Len() != c.Doc.Root.NodeCount() {
			t.Fatal("inconsistent node count")
		}
	})
}

// FuzzCorruptImage XORs one byte of a valid image —
// the single-bit-flip failure mode checksums exist for. Any flip inside
// the checksummed body must be rejected with ErrBadFormat by section
// verification; flips in the header must either fail cleanly or, if they
// happen to still parse, yield a consistent corpus. Never a panic, never a
// silently-accepted corrupt body.
func FuzzCorruptImage(f *testing.F) {
	c := core.BuildCorpus(gen.Figure5Corpus())
	var buf bytes.Buffer
	if err := Save(&buf, c); err != nil {
		f.Fatal(err)
	}
	good := buf.Bytes()
	bodyStart := len(magic) + 2 + 8*numSections

	f.Add(0, byte(0x01))            // magic
	f.Add(len(magic), byte(0x04))   // version byte: 6 -> 2
	f.Add(len(magic), byte(0x02))   // version byte: 6 -> 4, the retired v4
	f.Add(len(magic), byte(0x03))   // version byte: 6 -> 5, the retired v5
	f.Add(len(magic)+1, byte(0xFF)) // section count
	f.Add(len(magic)+2, byte(0x80)) // first section length
	f.Add(len(magic)+6, byte(0x01)) // first section checksum
	f.Add(bodyStart, byte(0xFF))    // first body byte
	f.Add(len(good)-1, byte(0x01))  // last body byte
	f.Add(len(good)/2, byte(0x55))  // mid-body

	f.Fuzz(func(t *testing.T, off int, x byte) {
		if off < 0 || off >= len(good) || x == 0 {
			t.Skip()
		}
		mut := append([]byte(nil), good...)
		mut[off] ^= x
		loaded, err := Load(bytes.NewReader(mut))
		if off == len(magic) && err == nil {
			t.Fatalf("image of version %d accepted", mut[off])
		}
		if off >= bodyStart {
			if err == nil {
				t.Fatalf("flip of body byte %d accepted", off)
			}
			if !errors.Is(err, ErrBadFormat) {
				t.Fatalf("body corruption at %d: err = %v, want ErrBadFormat", off, err)
			}
			return
		}
		if err == nil {
			if loaded.Doc == nil || loaded.Index == nil || loaded.Cls == nil || loaded.Keys == nil {
				t.Fatal("accepted corpus with nil artifacts")
			}
		}
	})
}

// TestCheckedImageCorruption is the deterministic cousin of
// FuzzCorruptImage: it strides over the body flipping bytes, and truncates
// the image at representative points, asserting every corruption is
// rejected with ErrBadFormat before reaching the structural decoders.
func TestCheckedImageCorruption(t *testing.T) {
	c := core.BuildCorpus(gen.Figure1Corpus())
	var buf bytes.Buffer
	if err := Save(&buf, c); err != nil {
		t.Fatal(err)
	}
	good := buf.Bytes()
	bodyStart := len(magic) + 2 + 8*numSections

	for off := bodyStart; off < len(good); off += 251 {
		mut := append([]byte(nil), good...)
		mut[off] ^= 0xFF
		if _, err := Load(bytes.NewReader(mut)); !errors.Is(err, ErrBadFormat) {
			t.Fatalf("flip at %d: err = %v, want ErrBadFormat", off, err)
		}
	}
	for _, n := range []int{0, 1, len(magic), len(magic) + 1, bodyStart - 1,
		bodyStart + 17, len(good) / 2, len(good) - 1} {
		if _, err := Load(bytes.NewReader(good[:n])); err == nil {
			t.Fatalf("truncation to %d bytes accepted", n)
		}
	}
	// Extra trailing bytes must be rejected too, not silently ignored.
	if _, err := Load(bytes.NewReader(append(append([]byte(nil), good...), 0))); !errors.Is(err, ErrBadFormat) {
		t.Fatalf("trailing byte: err = %v, want ErrBadFormat", err)
	}
}
