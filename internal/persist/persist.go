// Package persist stores and loads analyzed corpora in a compact binary
// format, so a database analyzed once (the paper's Data Analyzer + Index
// Builder stage) can be reopened without re-parsing XML or re-running
// classification and key mining — the role the demo's on-disk indexes play.
//
// One format exists, XTIX version 6. After the magic and the version byte
// comes a section table — a section count (always 5), then a u32 length and
// a u32 CRC-32C per section — and then the five sections back to back:
//
//	meta       DOCTYPE internal subset, the node count
//	strings    every label, value and keyword once: lengths, then one blob
//	tree       preorder node columns: tag bits, label ids, value ids,
//	           child counts
//	postings   the packed posting arrays of index.PostingList: per-keyword
//	           node ordinals and match fields
//	aux        classification and mined keys — the analysis every later
//	           stage reads
//
// Every structure is a fixed-width little-endian slab at an offset
// computable from the leading counts (packed.go has the byte layout), so
// the reader maps the file once and rebuilds every artifact without
// re-tokenizing a value. Round trips are lossless: the internal subset,
// every classified label (DTD-declared labels absent from the instance
// included, so a DTD's decisions survive without the DTD) and the mined
// keys are restored exactly.
//
// Loading verifies before it decodes: magic and version, then the section
// table (count, lengths summing exactly to the body, each section's
// checksum), and only then the structural decoders, which in turn validate
// string ids, node counts and slab bounds. A truncated or bit-flipped
// image — the failure mode of serving memory-mapped files off real disks —
// fails with a named ErrBadFormat error, never a panic (see FuzzLoad and
// FuzzCorruptImage). A format change
// bumps the version byte and replaces the reader: an image of any other
// version is refused, and is rebuilt from its XML source, not migrated.
package persist

import (
	"errors"
	"fmt"
	"io"
	"os"

	"extract/internal/core"
	"extract/internal/faultinject"
)

const (
	magic = "XTIX"
	// version is the one format revision this build writes and reads.
	version = 6
)

// ErrBadFormat reports a corrupted or foreign file.
var ErrBadFormat = errors.New("persist: bad format")

// SaveFile writes the corpus to a file.
func SaveFile(path string, c *core.Corpus) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := Save(f, c); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// Load reads a corpus saved by Save.
func Load(r io.Reader) (*core.Corpus, error) {
	data, err := io.ReadAll(r)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadFormat, err)
	}
	return LoadBytes(data)
}

// LoadFile reads a corpus from a file, memory-mapped where the platform
// supports it (falling back to one bulk read). The decoder copies out
// everything it retains, so the mapping is released before LoadFile
// returns, on success and on every failure.
func LoadFile(path string) (*core.Corpus, error) {
	return LoadFileVerified(path, nil)
}

// LoadFileVerified is LoadFile with the image's bytes shown to verify (when
// non-nil) before any of them is decoded: a snapshot reader checks them
// against the hash its manifest records, on the one mapping the decoder then
// reads, so a file swapped between the check and the decode is impossible.
// verify must not retain image; its error is returned as is.
func LoadFileVerified(path string, verify func(image []byte) error) (*core.Corpus, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	data, unmap, ok := mapFile(f)
	if ok {
		defer unmap()
	} else if data, err = io.ReadAll(f); err != nil {
		return nil, err
	}
	if verify != nil {
		if err := verify(data); err != nil {
			return nil, err
		}
	}
	return LoadBytes(data)
}

// LoadBytes decodes a fully-read corpus image — the form sharded-corpus
// files embed per shard. The faultinject hook lets tests corrupt images on
// the way in; mutators return a modified copy, so a memory-mapped image is
// never written through.
func LoadBytes(data []byte) (*core.Corpus, error) {
	if faultinject.Enabled() {
		data = faultinject.Mutate(faultinject.ImageBytes, data)
	}
	if len(data) < len(magic)+1 || string(data[:len(magic)]) != magic {
		return nil, fmt.Errorf("%w: bad magic", ErrBadFormat)
	}
	if v := data[len(magic)]; v != version {
		return nil, fmt.Errorf("%w: unsupported version %d (this build reads version %d) — rebuild the image from its XML source",
			ErrBadFormat, v, version)
	}
	body, err := verifySections(data)
	if err != nil {
		return nil, err
	}
	return decodeBody(data, body)
}
