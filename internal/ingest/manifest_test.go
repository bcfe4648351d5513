package ingest

import (
	"bytes"
	"encoding/binary"
	"errors"
	"flag"
	"fmt"
	"hash/crc32"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"extract/internal/bin"
)

var updateGolden = flag.Bool("update", false, "rewrite the golden manifest file")

// goldenManifest is a fixed, fully populated manifest: every field and
// both shapes of entry exercised, hashes chosen with high bytes set so
// endianness mistakes cannot hide.
func goldenManifest() *Manifest {
	return &Manifest{
		RootHash: 0xdeadbeefcafe0123,
		Analysis: FileEntry{File: "analysis.xtix", ImageHash: 0x0102030405060708},
		Shards: []ShardEntry{
			{File: "shard-0000.xtix", ContentHash: 0xfedcba9876543210, ImageHash: 1},
			{File: "shard-0001.xtix", ContentHash: 42, ImageHash: 0xffffffffffffffff},
			{File: "shard-0002.xtix", ContentHash: 0, ImageHash: 0},
		},
	}
}

// TestManifestRoundTrip pins losslessness both ways: decode(encode(m))
// equals m for representative manifests, and encode(decode(b)) reproduces
// the exact bytes (the encoding is canonical).
func TestManifestRoundTrip(t *testing.T) {
	cases := []*Manifest{
		goldenManifest(),
		{RootHash: 7, Analysis: FileEntry{File: "analysis.xtix", ImageHash: 5},
			Shards: []ShardEntry{{File: "shard-0000.xtix", ContentHash: 9, ImageHash: 11}}},
		{Analysis: FileEntry{File: "a.xtix"}, Shards: []ShardEntry{{File: "s.xtix"}}},
	}
	for i, m := range cases {
		enc := EncodeManifest(m)
		got, err := DecodeManifest(enc)
		if err != nil {
			t.Fatalf("case %d: decode: %v", i, err)
		}
		if !reflect.DeepEqual(got, m) {
			t.Fatalf("case %d: round trip drifted\nwant %+v\ngot  %+v", i, m, got)
		}
		if re := EncodeManifest(got); !bytes.Equal(re, enc) {
			t.Fatalf("case %d: re-encode is not canonical", i)
		}
	}
}

// TestManifestGolden pins the on-disk encoding byte-for-byte: an
// intentional format change must bump the version, replace the decoder and
// regenerate with -update (the same scheme internal/persist uses).
func TestManifestGolden(t *testing.T) {
	path := filepath.Join("testdata", "manifest.golden")
	enc := EncodeManifest(goldenManifest())
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, enc, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("golden file missing (run with -update): %v", err)
	}
	if !bytes.Equal(enc, want) {
		t.Errorf("manifest encoding drifted from golden (%d vs %d bytes); format changes must bump the version",
			len(enc), len(want))
	}
	m, err := DecodeManifest(want)
	if err != nil {
		t.Fatalf("golden manifest no longer decodes: %v", err)
	}
	if !reflect.DeepEqual(m, goldenManifest()) {
		t.Errorf("golden manifest decoded to %+v", m)
	}
}

// v1Manifest rewrites a current manifest as the retired version 1: the same
// layout without the trailing checksum. Derived from the encoder's output
// exactly the way the formats differed, so the fixture cannot drift.
func v1Manifest(enc []byte) []byte {
	v1 := append([]byte(nil), enc[:len(enc)-4]...)
	v1[len(manifestMagic)] = 1
	return v1
}

// TestManifestOtherVersionsRefused: a manifest of the retired checksum-less
// version 1 — which used to decode, unverified — or of any other version is
// refused as ErrBadManifest, naming the version it carries and the one this
// build reads, before a field of it is parsed.
func TestManifestOtherVersionsRefused(t *testing.T) {
	enc := EncodeManifest(goldenManifest())
	future := append([]byte(nil), enc...)
	future[len(manifestMagic)] = manifestVersion + 1
	for v, data := range map[int][]byte{1: v1Manifest(enc), manifestVersion + 1: future} {
		_, err := DecodeManifest(data)
		if !errors.Is(err, ErrBadManifest) {
			t.Fatalf("version %d: err = %v, want ErrBadManifest", v, err)
		}
		for _, want := range []string{fmt.Sprintf("unsupported version %d", v), fmt.Sprintf("reads version %d", manifestVersion), "re-save"} {
			if !strings.Contains(err.Error(), want) {
				t.Errorf("version %d: %q does not say %q", v, err, want)
			}
		}
	}
}

// TestManifestRejects enumerates the validation rules a hostile or
// corrupted manifest must not get past.
func TestManifestRejects(t *testing.T) {
	good := EncodeManifest(goldenManifest())
	mutate := func(f func(b []byte) []byte) []byte {
		return f(append([]byte(nil), good...))
	}
	// reseal recomputes the trailing checksum after a mutation, so the
	// decoder's field validation — not just the CRC — is what rejects it.
	reseal := func(b []byte) []byte {
		b = b[:len(b)-4]
		return binary.LittleEndian.AppendUint32(b, crc32.Checksum(b, bin.CRC32C))
	}
	cases := map[string][]byte{
		"empty":       {},
		"bad magic":   mutate(func(b []byte) []byte { b[0] = 'Y'; return b }),
		"bad version": mutate(func(b []byte) []byte { b[4] = 99; return b }),
		"bad flags":   mutate(func(b []byte) []byte { b[5] = 0xff; return reseal(b) }),
		"bit flip":    mutate(func(b []byte) []byte { b[9] ^= 0x04; return b }),
		"stale crc":   mutate(func(b []byte) []byte { b[len(b)-1] ^= 0x01; return b }),
		"truncated":   good[:len(good)-3],
		"trailing":    append(append([]byte(nil), good...), 0),
		// Flags 0 was the unsharded one-image layout; it is refused, not
		// misread as a snapshot without its analysis image.
		"unsharded layout": mutate(func(b []byte) []byte { b[5] = 0; return reseal(b) }),
	}
	for name, data := range cases {
		if _, err := DecodeManifest(data); !errors.Is(err, ErrBadManifest) {
			t.Errorf("%s: decoded with error %v, want ErrBadManifest", name, err)
		}
	}

	structural := map[string]*Manifest{
		"path traversal in shard": {Analysis: FileEntry{File: "a.xtix"},
			Shards: []ShardEntry{{File: "../evil"}}},
		"separator in analysis": {Analysis: FileEntry{File: "x/y"},
			Shards: []ShardEntry{{File: "s.xtix"}}},
		"duplicate names": {Analysis: FileEntry{File: "a.xtix"},
			Shards: []ShardEntry{{File: "s.xtix"}, {File: "s.xtix"}}},
		"no analysis image": {
			Shards: []ShardEntry{{File: "s.xtix"}}},
	}
	for name, m := range structural {
		if _, err := DecodeManifest(EncodeManifest(m)); err == nil {
			t.Errorf("%s: decoded without error", name)
		}
	}
}

// TestHostileCountsRefusedBeforeAllocating sets the manifest's one count, the
// shard count, to claim more entries than the bytes after it hold, and
// separately to one past maxManifestShards, with the checksum resealed: each
// is ErrBadManifest refusing the count, and allocates nothing sized from it.
func TestHostileCountsRefusedBeforeAllocating(t *testing.T) {
	m := goldenManifest()
	good := EncodeManifest(m)
	at := len(manifestMagic) + 2 + 8 + 1 + len(m.Analysis.File) + 8
	if got := binary.LittleEndian.Uint32(good[at:]); got != uint32(len(m.Shards)) {
		t.Fatalf("shard count at %d reads %d, want %d", at, got, len(m.Shards))
	}
	for how, claim := range map[string]uint32{"past the bytes left": maxManifestShards, "past its cap": maxManifestShards + 1} {
		b := append([]byte(nil), good[:len(good)-4]...)
		binary.LittleEndian.PutUint32(b[at:], claim)
		b = binary.LittleEndian.AppendUint32(b, crc32.Checksum(b, bin.CRC32C))
		_, err := DecodeManifest(b)
		if !errors.Is(err, ErrBadManifest) || !strings.Contains(err.Error(), "shard count") {
			t.Errorf("shard count %s: err = %v, want ErrBadManifest refusing it", how, err)
		}
		var before, after runtime.MemStats
		least := uint64(math.MaxUint64)
		for range 5 {
			runtime.ReadMemStats(&before)
			_, _ = DecodeManifest(b)
			runtime.ReadMemStats(&after)
			least = min(least, after.TotalAlloc-before.TotalAlloc)
		}
		if least > 4<<10 {
			t.Errorf("shard count %s: refusing it allocated %d bytes", how, least)
		}
	}
}
