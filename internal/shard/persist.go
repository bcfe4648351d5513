package shard

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"os"
	"sync"

	"extract/internal/core"
	"extract/internal/persist"
)

// Corpus file: a thin frame around one packed persist image per shard, so
// each shard round-trips through internal/persist's versioned, fuzzed format
// and shards can be decoded independently (and in parallel) on load. The
// loaders also accept a bare packed image — what a snapshot's shard images
// are — as a one-shard corpus; the magic tells the two apart.
//
//	magic "XTSH" | version u8 = 1 | u32 shardCount
//	per shard: u64 blobLen | persist packed image
const (
	shardMagic   = "XTSH"
	shardVersion = 1

	maxShards = 1 << 16
)

// ErrBadFormat reports a corrupted or foreign sharded-corpus file.
var ErrBadFormat = errors.New("shard: bad format")

// Save writes the sharded corpus: a shard-count frame around one packed
// persist image per shard. The global analysis artifacts are serialized
// with every shard (they are small); Load deduplicates them again.
func Save(w io.Writer, sc *Corpus) error {
	head := make([]byte, 0, len(shardMagic)+5)
	head = append(head, shardMagic...)
	head = append(head, shardVersion)
	head = binary.LittleEndian.AppendUint32(head, uint32(len(sc.shards)))
	if _, err := w.Write(head); err != nil {
		return err
	}
	var blob sliceWriter
	for _, s := range sc.shards {
		blob.buf = blob.buf[:0]
		if err := persist.Save(&blob, s); err != nil {
			return err
		}
		var frame [8]byte
		binary.LittleEndian.PutUint64(frame[:], uint64(len(blob.buf)))
		if _, err := w.Write(frame[:]); err != nil {
			return err
		}
		if _, err := w.Write(blob.buf); err != nil {
			return err
		}
	}
	return nil
}

type sliceWriter struct{ buf []byte }

func (s *sliceWriter) Write(p []byte) (int, error) {
	s.buf = append(s.buf, p...)
	return len(p), nil
}

// SaveFile writes the sharded corpus to a file.
func SaveFile(path string, sc *Corpus) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := Save(f, sc); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// Load reads a corpus saved by Save. Shard images decode in parallel, each
// through the packed persist reader.
func Load(r io.Reader) (*Corpus, error) {
	data, err := io.ReadAll(r)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadFormat, err)
	}
	return LoadBytes(data)
}

// LoadBytes decodes a fully-read corpus image: Save's frame, or a bare
// packed image as one shard.
func LoadBytes(data []byte) (*Corpus, error) {
	if !framed(data) {
		c, err := persist.LoadBytes(data)
		if err != nil {
			return nil, err
		}
		return fromParts([]*core.Corpus{c}), nil
	}
	headLen := len(shardMagic) + 1 + 4
	if len(data) < headLen {
		return nil, fmt.Errorf("%w: truncated header", ErrBadFormat)
	}
	if data[len(shardMagic)] != shardVersion {
		return nil, fmt.Errorf("%w: unsupported version %d", ErrBadFormat, data[len(shardMagic)])
	}
	count := binary.LittleEndian.Uint32(data[len(shardMagic)+1:])
	if count == 0 || count > maxShards {
		return nil, fmt.Errorf("%w: absurd shard count %d", ErrBadFormat, count)
	}
	blobs := make([][]byte, 0, count)
	off := headLen
	for i := uint32(0); i < count; i++ {
		if off+8 > len(data) {
			return nil, fmt.Errorf("%w: truncated shard frame %d", ErrBadFormat, i)
		}
		ln := binary.LittleEndian.Uint64(data[off:])
		off += 8
		if ln > uint64(len(data)-off) {
			return nil, fmt.Errorf("%w: shard %d overruns file", ErrBadFormat, i)
		}
		blobs = append(blobs, data[off:off+int(ln)])
		off += int(ln)
	}
	if off != len(data) {
		return nil, fmt.Errorf("%w: %d trailing bytes", ErrBadFormat, len(data)-off)
	}

	shards := make([]*core.Corpus, len(blobs))
	errs := make([]error, len(blobs))
	var wg sync.WaitGroup
	for i, blob := range blobs {
		wg.Add(1)
		go func(i int, blob []byte) {
			defer wg.Done()
			shards[i], errs[i] = persist.LoadBytes(blob)
		}(i, blob)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("shard %d: %w", i, err)
		}
	}
	return fromParts(shards), nil
}

// LoadFile reads a corpus image from a file. A bare packed image goes
// through persist's memory-mapping file loader.
func LoadFile(path string) (*Corpus, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	var head [len(shardMagic)]byte
	n, _ := io.ReadFull(f, head[:])
	f.Close()
	if !framed(head[:n]) {
		c, err := persist.LoadFile(path)
		if err != nil {
			return nil, err
		}
		return fromParts([]*core.Corpus{c}), nil
	}
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	return LoadBytes(data)
}

// framed reports whether data begins with the frame magic.
func framed(data []byte) bool {
	return len(data) >= len(shardMagic) && string(data[:len(shardMagic)]) == shardMagic
}
