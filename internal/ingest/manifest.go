package ingest

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
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

// manifestCRC is the CRC-32C polynomial table for the trailing checksum.
var manifestCRC = crc32.MakeTable(crc32.Castagnoli)

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
	return binary.LittleEndian.AppendUint32(buf, crc32.Checksum(buf, manifestCRC))
}

// manifestCursor decodes with sticky bounds checking.
type manifestCursor struct {
	data []byte
	off  int
	err  error
}

func (c *manifestCursor) fail(format string, args ...any) {
	if c.err == nil {
		c.err = fmt.Errorf("%w: %s", ErrBadManifest, fmt.Sprintf(format, args...))
	}
}

func (c *manifestCursor) bytes(n int) []byte {
	if c.err != nil {
		return nil
	}
	if n < 0 || n > len(c.data)-c.off {
		c.fail("truncated at offset %d (need %d bytes)", c.off, n)
		return nil
	}
	b := c.data[c.off : c.off+n]
	c.off += n
	return b
}

func (c *manifestCursor) u8() byte {
	b := c.bytes(1)
	if b == nil {
		return 0
	}
	return b[0]
}

func (c *manifestCursor) u32() uint32 {
	b := c.bytes(4)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint32(b)
}

func (c *manifestCursor) u64() uint64 {
	b := c.bytes(8)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint64(b)
}

func (c *manifestCursor) name(what string) string {
	n := int(c.u8())
	s := string(c.bytes(n))
	if c.err != nil {
		return ""
	}
	if s != "" && !validName(s) {
		c.fail("invalid %s file name %q", what, s)
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
	if got := crc32.Checksum(data, manifestCRC); got != want {
		return nil, fmt.Errorf("%w: checksum mismatch (manifest corrupt)", ErrBadManifest)
	}
	c := &manifestCursor{data: data, off: len(manifestMagic) + 1}
	flags := c.u8()
	if flags&^byte(flagLayout) != 0 {
		return nil, fmt.Errorf("%w: unknown flag bits %#x", ErrBadManifest, flags)
	}
	if flags&flagLayout == 0 {
		return nil, fmt.Errorf("%w: unsharded snapshot layout no longer supported — re-save", ErrBadManifest)
	}
	m := &Manifest{}
	m.RootHash = c.u64()
	m.Analysis.File = c.name("analysis")
	m.Analysis.ImageHash = c.u64()
	count := int(c.u32())
	if c.err == nil && (count == 0 || count > maxManifestShards) {
		return nil, fmt.Errorf("%w: absurd shard count %d", ErrBadManifest, count)
	}
	if c.err == nil && count > (len(c.data)-c.off)/17 {
		// A shard entry costs at least 17 bytes; a larger count cannot be
		// backed by the remaining bytes.
		return nil, fmt.Errorf("%w: shard count %d exceeds manifest size", ErrBadManifest, count)
	}
	seen := make(map[string]bool, count+1)
	if m.Analysis.File != "" {
		seen[m.Analysis.File] = true
	}
	for i := 0; i < count && c.err == nil; i++ {
		e := ShardEntry{File: c.name("shard")}
		e.ContentHash = c.u64()
		e.ImageHash = c.u64()
		if c.err != nil {
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
	if c.err != nil {
		return nil, c.err
	}
	if c.off != len(data) {
		return nil, fmt.Errorf("%w: %d trailing bytes", ErrBadManifest, len(data)-c.off)
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
