// Package ingest is the corpus refresh subsystem: it makes reloading a
// served corpus proportional to what actually changed instead of to corpus
// size. It owns the two constructions of a corpus generation (Generation: a
// shard.Corpus plus its content identity), each stated once and each taking
// an optional previous generation to adopt unchanged shards from.
//
// Build is document → generation, and BuildSplit the same body from bytes
// split at the root's children, parsing only the segments whose bytes the
// previous generation did not read. Diff hashes the top-level entities with
// the same partitioner as internal/shard and reports, per prospective
// shard, whether the previous generation's shard can be adopted unchanged
// (document, packed index and analysis partial intact) or must be rebuilt;
// shard.BuildFrom then builds only the changed blocks and merges the
// analysis from every shard's partial. A fresh load is the same call with
// nothing to adopt, so a delta equals a fresh load by construction.
//
// LoadDelta is snapshot directory → generation. Snapshot persists a corpus
// as a directory — a small versioned manifest (ManifestName) listing
// per-shard content hashes, a packed global-analysis image, and one packed
// image per shard, every image in internal/persist's fuzzed packed format.
// There is one layout whatever the shard count (a default corpus is one
// shard), so any snapshot serves anywhere: locally, on shard servers, behind
// a router. One reader (open) serves them all: it maps the images the caller
// needs, verifies each against the hash the manifest records, and
// reconstructs the corpus without re-parsing, re-tokenizing or re-analyzing
// any XML — refresh from disk costs a map plus a decode, not an analysis —
// and nothing outside this package reads a manifest. Snapshot writes are
// themselves incremental: a shard whose content hash matches the previous
// manifest, and whose image on disk still hashes to that manifest's record,
// keeps the image without being re-encoded.
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

// Snapshot writes a corpus into dir as a snapshot, creating the
// directory if needed. The write is incremental against any manifest
// already in dir: a shard image whose content hash is unchanged and whose
// bytes still hash to what that manifest records is left untouched on disk,
// so refreshing a snapshot after a small edit rewrites one shard image, the
// (small) analysis image and the manifest. Every file is renamed into place
// whole and the manifest last, so a reader never sees torn bytes or a
// manifest naming a missing file — but between the first image rename and
// the manifest rename, and for good if the writer dies there, the old
// manifest sits over some new images. That state does not load as the
// previous generation: the reader verifies every image it opens against the
// manifest's record and refuses it (ErrImageMismatch). Saving either
// generation into the directory again repairs it, since no image is kept
// whose bytes are not the ones the new manifest records.
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
	if !imageCurrent(dir, analysisFile, m.Analysis.ImageHash) {
		if err := writeFile(dir, analysisFile, ablob); err != nil {
			return err
		}
	}

	shards := sc.Shards()
	m.Shards = make([]ShardEntry, len(shards))
	for i, s := range shards {
		e := ShardEntry{File: shardFile(i), ContentHash: ShardHash(s.Doc)}
		if pe, ok := matchingEntry(prev, e.File, e.ContentHash); ok && imageCurrent(dir, e.File, pe.ImageHash) {
			// The on-disk image already encodes this content; adopt it
			// without re-encoding the shard.
			e.ImageHash = pe.ImageHash
		} else {
			blob, err := encodeCorpus(s)
			if err != nil {
				return err
			}
			e.ImageHash = hashBytes(blob)
			if err := writeFile(dir, e.File, blob); err != nil {
				return err
			}
		}
		m.Shards[i] = e
	}
	if err := writeFile(dir, ManifestName, EncodeManifest(m)); err != nil {
		return err
	}
	removeStaleImages(dir, prev, m)
	return nil
}

// loadAttempts bounds the reader's stability retries: a directory refreshed
// mid-read is re-read against its new manifest; one that keeps changing
// faster than it can be read is an error, not a livelock.
const loadAttempts = 3

// ErrSnapshotChanging reports a snapshot directory that was rewritten
// faster than it could be read, every retry.
var ErrSnapshotChanging = errors.New("ingest: snapshot directory kept changing during load")

// ErrImageMismatch reports an image file whose bytes are not the ones the
// manifest naming it records: the directory is between a writer's first
// image rename and its manifest rename — transient during an in-place
// refresh, permanent after a writer crash (see Snapshot). Nothing of the
// image is decoded.
var ErrImageMismatch = errors.New("ingest: snapshot image does not match its manifest entry")

// Load opens a snapshot directory as a corpus generation: LoadDelta with
// no previous generation, so every shard image is decoded.
func Load(dir string) (*Generation, error) {
	g, _, err := LoadDelta(dir, nil)
	return g, err
}

// LoadDelta opens a snapshot directory as a corpus generation, adopting
// from prev (nil for none) every shard the manifest's content hashes say is
// unchanged — same root fingerprint, same shard count, same hash at the same
// position — document and packed index intact; only the other shards'
// images are mapped and decoded, in parallel. reused counts the adopted
// shards. No XML is parsed and no analysis recomputed either way: the
// shards are rebound to the artifacts of the snapshot's analysis image,
// exactly as a live build shares them, so the result equals Load's (pinned
// by the facade's property tests).
func LoadDelta(dir string, prev *Generation) (g *Generation, reused int, err error) {
	o, err := open(dir, prev, true)
	if err != nil {
		return nil, 0, err
	}
	h := o.head
	label, fromAttr := "", false
	if root := h.Doc.Root; root != nil {
		label, fromAttr = root.Label, root.FromAttr
	}
	a := &core.Analysis{Cls: h.Cls, Keys: h.Keys}
	return &Generation{
		Corpus: shard.Assemble(o.shards, a, label, fromAttr, h.Doc.InternalSubset),
		Source: o.source,
	}, o.reused, nil
}

// LoadHead opens only what a router needs of a snapshot directory — the
// shard images stay with the servers: the document-less analysis corpus
// snippet generation reads, and the generation identity shards are placed
// by.
func LoadHead(dir string) (analysis *core.Corpus, src Source, err error) {
	o, err := open(dir, nil, false)
	if err != nil {
		return nil, Source{}, err
	}
	// The head image's root-only document is for LoadDelta, which reads the
	// root identity off it; a router wants the artifacts alone.
	o.head.Doc, o.head.Index = nil, nil
	return o.head, o.source, nil
}

// opened is one coherent read of a snapshot directory.
type opened struct {
	source Source
	// head is the decoded analysis image: the global artifacts on a
	// root-only document carrying the root identity and DOCTYPE subset.
	head   *core.Corpus
	shards []*core.Corpus // nil unless shard images were asked for
	reused int            // how many of shards were adopted from prev
}

// open is the one reader of a snapshot directory — every way in (Load,
// LoadDelta, LoadHead, and through them the facade, the router and the
// shard server's watcher) is a call of it. It reads the manifest, opens the
// images the caller needs — the analysis image always; with withShards,
// every shard image not adopted from prev — each verified against the
// manifest's ImageHash before it is decoded, then re-reads the manifest:
// every snapshot write renames the manifest last, so an unchanged manifest
// proves the images read belong to one generation, and what was read — a
// generation or its error — is the answer. A manifest that moved means a
// writer refreshed the directory mid-read: the attempt is discarded, error
// and all (an image swapped under the reader fails verification or
// vanishes), and the read retried against the new manifest.
func open(dir string, prev *Generation, withShards bool) (*opened, error) {
	for attempt := 0; attempt < loadAttempts; attempt++ {
		m, err := readManifest(dir)
		if err != nil {
			return nil, err
		}
		o, err := openGeneration(dir, m, prev, withShards)
		if manifestUnchanged(dir, m) {
			return o, err
		}
	}
	return nil, ErrSnapshotChanging
}

// openGeneration opens the images one manifest describes.
func openGeneration(dir string, m *Manifest, prev *Generation, withShards bool) (*opened, error) {
	head, err := loadImage(dir, m.Analysis.File, m.Analysis.ImageHash)
	if err != nil {
		return nil, err
	}
	o := &opened{source: m.source(), head: head}
	if !withShards {
		return o, nil
	}
	var same []bool
	if prev != nil {
		same, o.reused = Adoptable(prev.Source, o.source)
	}
	o.shards = make([]*core.Corpus, len(m.Shards))
	errs := make([]error, len(m.Shards))
	var wg sync.WaitGroup
	for i, e := range m.Shards {
		if same != nil && same[i] {
			a := prev.Corpus.Shards()[i]
			o.shards[i] = &core.Corpus{Doc: a.Doc, Index: a.Index, Partial: a.Partial}
			continue
		}
		wg.Add(1)
		go func(i int, e ShardEntry) {
			defer wg.Done()
			o.shards[i], errs[i] = loadImage(dir, e.File, e.ImageHash)
		}(i, e)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return o, nil
}

// loadImage maps and decodes one image a manifest names, after verifying
// the mapped bytes against the hash the manifest records for it.
func loadImage(dir, file string, want uint64) (*core.Corpus, error) {
	c, err := persist.LoadFileVerified(filepath.Join(dir, file), func(image []byte) error {
		if got := hashBytes(image); got != want {
			return fmt.Errorf("%w: %s hashes to %016x, the manifest records %016x", ErrImageMismatch, file, got, want)
		}
		return nil
	})
	if err != nil && !errors.Is(err, ErrImageMismatch) {
		return nil, fmt.Errorf("ingest: snapshot image %s: %w", file, err)
	}
	return c, err
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
		Doc:   doc,
		Index: index.Build(doc),
		Cls:   a.Cls,
		Keys:  a.Keys,
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
	m, err := readManifest(dir)
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

// imageCurrent reports whether the image file on disk holds exactly the bytes
// a manifest entry is about to record for it — the reader's own check. A
// previous manifest's say-so is not enough: after an interrupted write it sits
// over images of a generation it does not describe.
func imageCurrent(dir, file string, want uint64) bool {
	data, err := os.ReadFile(filepath.Join(dir, file))
	return err == nil && hashBytes(data) == want
}

// writeFile writes one file of a snapshot — an image, or last of all the
// manifest — through a temp file and a rename, so a reader, a watcher
// stat-ing ManifestName or a crash sees the name's previous bytes or the new
// ones whole, never torn ones.
func writeFile(dir, file string, blob []byte) error {
	tmp, err := os.CreateTemp(dir, file+".tmp*")
	if err != nil {
		return err
	}
	// CreateTemp's 0600 would leave the file unreadable in a snapshot
	// served by another user.
	err = tmp.Chmod(0o644)
	if err == nil {
		_, err = tmp.Write(blob)
	}
	if cerr := tmp.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(tmp.Name(), filepath.Join(dir, file))
	}
	if err != nil {
		os.Remove(tmp.Name())
	}
	return err
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
