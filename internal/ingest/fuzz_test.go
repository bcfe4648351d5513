package ingest

import (
	"bytes"
	"reflect"
	"testing"
)

// FuzzManifest feeds arbitrary bytes to the manifest decoder: it must
// reject or accept without panicking, and anything accepted must survive a
// re-encode/decode round trip as an equal value and re-encode to exactly
// the input bytes. Only the current version is ever accepted: the retired
// checksum-less v1 seeded below must be rejected.
func FuzzManifest(f *testing.F) {
	f.Add(EncodeManifest(goldenManifest()))
	f.Add(EncodeManifest(&Manifest{
		RootHash: 3,
		Analysis: FileEntry{File: "analysis.xtix", ImageHash: 4},
		Shards:   []ShardEntry{{File: "shard-0000.xtix", ContentHash: 1, ImageHash: 2}},
	}))
	f.Add([]byte{})
	f.Add([]byte("XTSN"))
	good := EncodeManifest(goldenManifest())
	f.Add(good[:len(good)/2])
	f.Add(v1Manifest(good))
	mut := append([]byte(nil), good...)
	for i := 4; i < len(mut); i += 7 {
		mut[i] ^= 0x55
	}
	f.Add(mut)

	f.Fuzz(func(t *testing.T, data []byte) {
		m, err := DecodeManifest(data)
		if err != nil {
			return
		}
		if data[len(manifestMagic)] != manifestVersion {
			t.Fatalf("accepted a manifest of version %d", data[len(manifestMagic)])
		}
		re := EncodeManifest(m)
		if !bytes.Equal(re, data) {
			t.Fatalf("accepted manifest re-encodes differently (%d vs %d bytes)", len(re), len(data))
		}
		m2, err := DecodeManifest(re)
		if err != nil {
			t.Fatalf("re-encoded manifest no longer decodes: %v", err)
		}
		if !reflect.DeepEqual(m, m2) {
			t.Fatal("double decode drifted")
		}
	})
}
