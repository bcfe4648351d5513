package ingest

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"

	"extract/internal/bin"
)

// Snapshot manifest: the small, versioned description of a snapshot
// directory that delta reloads diff against. All integers little-endian.
//
//	magic "XTSN" | version u8 = 2 | flags u8 (bit0 always set, see below)
//	u64 rootHash
//	analysis: u8 nameLen | name | u64 imageHash
//	u32 shardCount
//	per shard: u8 nameLen | name | u64 contentHash | u64 imageHash
//	u32 CRC-32C of every preceding byte
//
// The checksum is verified before any field parsing: a torn or bit-flipped
// manifest fails as corruption, not as whatever field the damage lands in.
// A manifest of any other version is refused; a snapshot is re-saved from
// its source, never migrated.
//
// Flags bit 0 names the layout: an analysis image plus one image per shard,
// n >= 1 — the only one there is, so the bit is always written. Flags 0 was
// a retired one-image "unsharded" layout with no analysis file; it is
// rejected with a re-save message rather than misread.
//
// ContentHash fingerprints the shard's *source entities* (see HashEntities)
// — the key Diff compares across generations; ImageHash fingerprints the
// packed image bytes, so an incremental Snapshot can prove an on-disk image
// is current without re-encoding it.
const (
	manifestMagic   = "XTSN"
	manifestVersion = 2

	// ManifestName is the manifest's file name inside a snapshot
	// directory — the file watchers stat to detect a new snapshot
	// generation (it is renamed into place last).
	ManifestName = "manifest.xtsn"

	flagLayout = 1 // bit 0, always set: analysis image + one image per shard

	maxManifestShards = 1 << 16
	maxNameLen        = 255
)

// ErrBadManifest reports a corrupted or foreign manifest.
var ErrBadManifest = errors.New("ingest: bad manifest")

// FileEntry names one auxiliary image file of a snapshot.
type FileEntry struct {
	File      string
	ImageHash uint64
}

// ShardEntry describes one shard of a snapshot: its packed image file, the
// content hash of its source entities, and the image hash of the file
// bytes.
type ShardEntry struct {
	File        string
	ContentHash uint64
	ImageHash   uint64
}

// Manifest is the decoded form of a snapshot directory's manifest file.
type Manifest struct {
	RootHash uint64
	Analysis FileEntry
	Shards   []ShardEntry
}

// source returns the generation identity the manifest describes, in the
// form Diff compares.
func (m *Manifest) source() Source {
	s := Source{RootHash: m.RootHash, Shards: make([]uint64, len(m.Shards))}
	for i, e := range m.Shards {
		s.Shards[i] = e.ContentHash
	}
	return s
}

// EncodeManifest serializes m canonically: decoding the result yields an
// equal Manifest, and re-encoding any decoded manifest reproduces the
// input bytes (pinned by the fuzz target and the golden file).
func EncodeManifest(m *Manifest) []byte {
	buf := make([]byte, 0, 64+32*len(m.Shards))
	buf = append(buf, manifestMagic...)
	buf = append(buf, manifestVersion)
	buf = append(buf, flagLayout)
	buf = binary.LittleEndian.AppendUint64(buf, m.RootHash)
	buf = append(buf, byte(len(m.Analysis.File)))
	buf = append(buf, m.Analysis.File...)
	buf = binary.LittleEndian.AppendUint64(buf, m.Analysis.ImageHash)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(m.Shards)))
	for _, e := range m.Shards {
		buf = append(buf, byte(len(e.File)))
		buf = append(buf, e.File...)
		buf = binary.LittleEndian.AppendUint64(buf, e.ContentHash)
		buf = binary.LittleEndian.AppendUint64(buf, e.ImageHash)
	}
	return binary.LittleEndian.AppendUint32(buf, crc32.Checksum(buf, bin.CRC32C))
}

// name reads one u8-length-prefixed file name.
func name(c *bin.Reader, what string) string {
	s := string(c.Bytes(int(c.U8(what)), what))
	if c.Err() == nil && s != "" && !validName(s) {
		c.Fail("invalid %s file name %q", what, s)
		return ""
	}
	return s
}

// validName accepts exactly the file names a snapshot writer produces:
// plain names inside the snapshot directory, never paths. Rejecting
// separators and dot-names up front means a hostile manifest cannot make
// the loader read or the writer delete anything outside its directory.
func validName(s string) bool {
	if s == "" || len(s) > maxNameLen || s == "." || s == ".." {
		return false
	}
	for i := 0; i < len(s); i++ {
		c := s[i]
		switch {
		case 'a' <= c && c <= 'z', 'A' <= c && c <= 'Z', '0' <= c && c <= '9':
		case c == '-' || c == '_' || c == '.':
		default:
			return false
		}
	}
	return true
}

// DecodeManifest parses and validates a manifest image; the checksum is
// verified before any field parsing.
func DecodeManifest(data []byte) (*Manifest, error) {
	if len(data) < len(manifestMagic)+2 || string(data[:len(manifestMagic)]) != manifestMagic {
		return nil, fmt.Errorf("%w: bad magic", ErrBadManifest)
	}
	if v := data[len(manifestMagic)]; v != manifestVersion {
		return nil, fmt.Errorf("%w: unsupported version %d (this build reads version %d) — re-save the snapshot from its source",
			ErrBadManifest, v, manifestVersion)
	}
	if len(data) < len(manifestMagic)+2+4 {
		return nil, fmt.Errorf("%w: truncated before checksum", ErrBadManifest)
	}
	want := binary.LittleEndian.Uint32(data[len(data)-4:])
	data = data[:len(data)-4]
	if got := crc32.Checksum(data, bin.CRC32C); got != want {
		return nil, fmt.Errorf("%w: checksum mismatch (manifest corrupt)", ErrBadManifest)
	}
	c := bin.NewReader(data, len(manifestMagic)+1, func(msg string) error {
		return fmt.Errorf("%w: %s", ErrBadManifest, msg)
	})
	flags := c.U8("flags")
	if flags&^byte(flagLayout) != 0 {
		return nil, fmt.Errorf("%w: unknown flag bits %#x", ErrBadManifest, flags)
	}
	if flags&flagLayout == 0 {
		return nil, fmt.Errorf("%w: unsharded snapshot layout no longer supported — re-save", ErrBadManifest)
	}
	m := &Manifest{}
	m.RootHash = c.U64("root hash")
	m.Analysis.File = name(&c, "analysis")
	m.Analysis.ImageHash = c.U64("analysis image hash")
	// A shard entry is at least 17 bytes: a name length and two hashes.
	count := c.Count(uint64(c.U32("shard")), "shard", maxManifestShards, 17)
	if c.Err() == nil && count == 0 {
		return nil, fmt.Errorf("%w: no shards", ErrBadManifest)
	}
	seen := make(map[string]bool, count+1)
	if m.Analysis.File != "" {
		seen[m.Analysis.File] = true
	}
	for i := 0; i < count && c.Err() == nil; i++ {
		e := ShardEntry{File: name(&c, "shard")}
		e.ContentHash = c.U64("content hash")
		e.ImageHash = c.U64("image hash")
		if c.Err() != nil {
			break
		}
		if e.File == "" {
			return nil, fmt.Errorf("%w: shard %d has no file name", ErrBadManifest, i)
		}
		if seen[e.File] {
			return nil, fmt.Errorf("%w: duplicate file name %q", ErrBadManifest, e.File)
		}
		seen[e.File] = true
		m.Shards = append(m.Shards, e)
	}
	if err := c.Done(); err != nil {
		return nil, err
	}
	if m.Analysis.File == "" {
		return nil, fmt.Errorf("%w: snapshot without analysis image", ErrBadManifest)
	}
	return m, nil
}

// readManifest loads and decodes the manifest of a snapshot directory.
func readManifest(dir string) (*Manifest, error) {
	data, err := os.ReadFile(filepath.Join(dir, ManifestName))
	if err != nil {
		return nil, err
	}
	return DecodeManifest(data)
}

// manifestUnchanged reports whether dir's manifest still encodes exactly
// m — the second half of open's read, images, re-read scheme.
func manifestUnchanged(dir string, m *Manifest) bool {
	m2, err := readManifest(dir)
	return err == nil && bytes.Equal(EncodeManifest(m2), EncodeManifest(m))
}
