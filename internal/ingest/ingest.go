// Package ingest is the corpus refresh subsystem: it makes reloading a
// served corpus proportional to what actually changed instead of to corpus
// size.
//
// Two mechanisms compose:
//
// Snapshots persist a corpus as a directory — a small versioned manifest
// (ManifestName) listing per-shard content hashes, a packed global-analysis
// image, and one packed image per shard, every image in internal/persist's
// fuzzed packed format. There is one layout whatever the shard count (a
// default corpus is one shard), so any snapshot serves anywhere: locally, on
// shard servers, behind a router. Load memory-maps the images and
// reconstructs the corpus without re-parsing, re-tokenizing or re-analyzing
// any XML, which makes a snapshot a first-class reload source: refresh from
// disk costs a map plus a decode, not an analysis. Snapshot writes are
// themselves incremental — a shard whose content hash matches the previous
// manifest keeps its on-disk image, proven current by the image hash,
// without being re-encoded.
//
// Deltas compare generations. Diff hashes the top-level entities of a
// newly parsed document with the same partitioner as internal/shard and
// reports, per prospective shard, whether the previous generation's shard
// can be adopted unchanged (document and packed index intact) or must be
// rebuilt. The facade's ReloadDelta builds only the changed shards against
// a freshly computed global analysis; the result is pinned byte-identical
// to a full fresh load by the facade's property tests.
//
// Content hashes (see HashEntities) fingerprint source content only, so a
// hash computed from a parsed partition block, from a built shard's
// document, or recorded in a manifest years earlier all agree — the
// property the whole subsystem rests on.
package ingest

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"

	"extract/internal/core"
	"extract/internal/index"
	"extract/internal/persist"
	"extract/internal/shard"
	"extract/xmltree"
)

// analysisFile is the file name of a snapshot's packed global-analysis
// image.
const analysisFile = "analysis.xtix"

// shardFile returns the file name of shard i's packed image.
func shardFile(i int) string { return fmt.Sprintf("shard-%04d.xtix", i) }

// Loaded is a corpus reconstructed from a snapshot directory: Corpus is the
// corpus (one shard or many — a snapshot has one layout), and Source carries
// the manifest's per-shard content hashes so the generation can be
// delta-diffed without rehashing its documents.
type Loaded struct {
	Corpus *shard.Corpus
	Source Source
}

// Snapshot writes a corpus into dir as a snapshot, creating the
// directory if needed. The write is incremental against any manifest
// already in dir: shard images whose content hash is unchanged are left
// untouched on disk, so refreshing a snapshot after a small edit rewrites
// one shard image, the (small) analysis image and the manifest. The
// manifest is written last, atomically — a crash mid-snapshot leaves the
// previous generation loadable.
func Snapshot(dir string, sc *shard.Corpus) error {
	label, fromAttr := sc.Root()
	subset := sc.InternalSubset()
	m := &Manifest{
		RootHash: RootHash(label, fromAttr, subset),
		Analysis: FileEntry{File: analysisFile},
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	prev := previousManifest(dir)

	// The analysis image is small (no document body): always encode, skip
	// only the file write when the bytes are unchanged.
	ablob, err := encodeCorpus(analysisImage(sc.Analysis(), label, fromAttr, subset))
	if err != nil {
		return err
	}
	m.Analysis.ImageHash = hashBytes(ablob)
	if err := writeImage(dir, m.Analysis.File, ablob, prev != nil &&
		prev.Analysis.File == m.Analysis.File && prev.Analysis.ImageHash == m.Analysis.ImageHash); err != nil {
		return err
	}

	shards := sc.Shards()
	m.Shards = make([]ShardEntry, len(shards))
	for i, s := range shards {
		e := ShardEntry{File: shardFile(i), ContentHash: ShardHash(s.Doc)}
		if pe, ok := matchingEntry(prev, e.File, e.ContentHash); ok && imageCurrent(dir, e.File) {
			// The on-disk image already encodes this content; adopt it
			// without re-encoding the shard.
			e.ImageHash = pe.ImageHash
		} else {
			blob, err := encodeCorpus(s)
			if err != nil {
				return err
			}
			e.ImageHash = hashBytes(blob)
			if err := writeImage(dir, e.File, blob, false); err != nil {
				return err
			}
		}
		m.Shards[i] = e
	}
	if err := writeManifest(dir, m); err != nil {
		return err
	}
	removeStaleImages(dir, prev, m)
	return nil
}

// loadAttempts bounds the stability retries of Load and of the facade's
// snapshot reload: a directory being refreshed mid-load is re-read
// against its new manifest; one that keeps changing faster than it can be
// loaded is an error, not a livelock.
const loadAttempts = 3

// ErrSnapshotChanging reports a snapshot directory that was rewritten
// faster than it could be read, every retry.
var ErrSnapshotChanging = errors.New("ingest: snapshot directory kept changing during load")

// Load reconstructs a corpus from a snapshot directory: manifest, then the
// packed images through internal/persist's memory-mapping loader, shard
// images decoding in parallel. No XML is parsed and no analysis is
// recomputed; the shards are rebound to the artifacts of the global
// analysis image, exactly as a live build shares them.
// Loading is safe against a writer refreshing the directory in place: the
// manifest is re-read after the images, and a changed manifest retries
// the load against the new generation (the manifest is written last, so
// an unchanged manifest proves a coherent read).
func Load(dir string) (*Loaded, error) {
	for attempt := 0; attempt < loadAttempts; attempt++ {
		m, err := ReadManifest(dir)
		if err != nil {
			return nil, err
		}
		loaded, err := loadGeneration(dir, m)
		if err != nil {
			// The error may itself be the writer's race (an image swapped
			// under us decodes as garbage or vanishes); retry if so.
			if !ManifestUnchanged(dir, m) {
				continue
			}
			return nil, err
		}
		if ManifestUnchanged(dir, m) {
			return loaded, nil
		}
	}
	return nil, ErrSnapshotChanging
}

// loadGeneration loads the images one manifest describes.
func loadGeneration(dir string, m *Manifest) (*Loaded, error) {
	a, label, fromAttr, subset, err := LoadAnalysis(dir, m)
	if err != nil {
		return nil, err
	}
	shards := make([]*core.Corpus, len(m.Shards))
	errs := make([]error, len(m.Shards))
	var wg sync.WaitGroup
	for i, e := range m.Shards {
		wg.Add(1)
		go func(i int, e ShardEntry) {
			defer wg.Done()
			shards[i], errs[i] = LoadShardImage(dir, e)
		}(i, e)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return &Loaded{
		Corpus: shard.Assemble(shards, a, label, fromAttr, subset),
		Source: m.Source(),
	}, nil
}

// LoadAnalysis loads a snapshot's global-analysis image: the
// shared analysis artifacts plus the root identity they were computed
// under. The delta-reload path uses it to refresh the analysis while
// adopting unchanged shards.
func LoadAnalysis(dir string, m *Manifest) (a *core.Analysis, rootLabel string, fromAttr bool, subset string, err error) {
	ac, err := persist.LoadFile(filepath.Join(dir, m.Analysis.File))
	if err != nil {
		return nil, "", false, "", fmt.Errorf("ingest: analysis image %s: %w", m.Analysis.File, err)
	}
	a = &core.Analysis{Cls: ac.Cls, Keys: ac.Keys, Summary: ac.Summary, Guide: ac.Guide, DTD: ac.DTD}
	if ac.Doc.Root != nil {
		rootLabel, fromAttr = ac.Doc.Root.Label, ac.Doc.Root.FromAttr
	}
	return a, rootLabel, fromAttr, ac.Doc.InternalSubset, nil
}

// LoadShardImage loads one shard's packed image from a snapshot directory
// — the unit a snapshot delta reload fetches for shards whose content hash
// moved.
func LoadShardImage(dir string, e ShardEntry) (*core.Corpus, error) {
	c, err := persist.LoadFile(filepath.Join(dir, e.File))
	if err != nil {
		return nil, fmt.Errorf("ingest: snapshot image %s: %w", e.File, err)
	}
	return c, nil
}

// analysisImage wraps the global analysis artifacts in a minimal corpus —
// a lone root element carrying the root identity and the DOCTYPE internal
// subset — so the analysis persists through the same packed codec as every
// shard image instead of needing a format of its own.
func analysisImage(a *core.Corpus, label string, fromAttr bool, subset string) *core.Corpus {
	root := &xmltree.Node{Kind: xmltree.KindElement, Label: label, FromAttr: fromAttr}
	doc := xmltree.NewDocument(root)
	doc.InternalSubset = subset
	return &core.Corpus{
		Doc:     doc,
		Index:   index.Build(doc),
		Cls:     a.Cls,
		Keys:    a.Keys,
		Summary: a.Summary,
		Guide:   a.Guide,
		DTD:     a.DTD,
	}
}

// encodeCorpus serializes one corpus through the packed persist codec.
func encodeCorpus(c *core.Corpus) ([]byte, error) {
	var buf bytes.Buffer
	if err := persist.Save(&buf, c); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// previousManifest reads dir's manifest for incremental-write decisions; a
// missing or corrupt manifest just disables reuse.
func previousManifest(dir string) *Manifest {
	m, err := ReadManifest(dir)
	if err != nil {
		return nil
	}
	return m
}

// matchingEntry finds the previous generation's entry for file, if its
// content hash proves the image encodes the same entities.
func matchingEntry(prev *Manifest, file string, contentHash uint64) (ShardEntry, bool) {
	if prev == nil {
		return ShardEntry{}, false
	}
	for _, e := range prev.Shards {
		if e.File == file {
			return e, e.ContentHash == contentHash
		}
	}
	return ShardEntry{}, false
}

// imageCurrent reports whether an image file referenced by the previous
// manifest is still present (a vanished file forces a rewrite even when
// hashes match).
func imageCurrent(dir, file string) bool {
	fi, err := os.Stat(filepath.Join(dir, file))
	return err == nil && fi.Mode().IsRegular()
}

// writeImage writes one image file unless skip says the on-disk bytes are
// already current. Image files are written before the manifest that
// references them, so a reader never follows a manifest to a missing
// file; each write goes through a temp file + rename, so a reader (or a
// crash) mid-snapshot sees the previous image intact under the previous
// manifest, never torn bytes.
func writeImage(dir, file string, blob []byte, skip bool) error {
	if skip && imageCurrent(dir, file) {
		return nil
	}
	tmp, err := os.CreateTemp(dir, file+".tmp*")
	if err != nil {
		return err
	}
	cleanup := func() {
		tmp.Close()
		os.Remove(tmp.Name())
	}
	if err := tmp.Chmod(0o644); err != nil {
		cleanup()
		return err
	}
	if _, err := tmp.Write(blob); err != nil {
		cleanup()
		return err
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmp.Name())
		return err
	}
	if err := os.Rename(tmp.Name(), filepath.Join(dir, file)); err != nil {
		os.Remove(tmp.Name())
		return err
	}
	return nil
}

// removeStaleImages deletes image files the previous manifest referenced
// that the new one no longer does (a shrinking shard count, a shape
// change). Only names recorded in the previous manifest are touched.
func removeStaleImages(dir string, prev, cur *Manifest) {
	if prev == nil {
		return
	}
	keep := map[string]bool{cur.Analysis.File: true}
	for _, e := range cur.Shards {
		keep[e.File] = true
	}
	stale := func(name string) {
		if name != "" && !keep[name] {
			os.Remove(filepath.Join(dir, name))
		}
	}
	stale(prev.Analysis.File)
	for _, e := range prev.Shards {
		stale(e.File)
	}
}
