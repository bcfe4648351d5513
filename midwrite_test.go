package extract

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"extract/internal/core"
	"extract/internal/ingest"
	"extract/internal/remote"
	"extract/xmltree"
)

// midWriteDocs returns generation A and a generation B that edits one
// entity of it — adding an element label A never had, so the two differ in a
// shard image and in the analysis image (classification) alike.
func midWriteDocs() (a, b string) {
	docB := deltaBaseDoc()
	xmltree.Append(docB.Root.Children[2], xmltree.Attr("zzzpromo", "zzzfresh inventory"))
	return xmltree.XMLString(deltaBaseDoc().Root), xmltree.XMLString(xmltree.NewDocument(docB.Root).Root)
}

// analysisFacts renders what a snapshot's analysis image decides.
func analysisFacts(a *core.Corpus) string {
	return fmt.Sprint(a.Cls.Entities(), a.Cls.Attributes(), a.Cls.Connections())
}

// TestMidWriteSnapshotNeverMixesGenerations pins the reader's contract on
// the directory state every in-place refresh passes through — and a crashed
// writer leaves behind: some image already renamed to generation B, the
// manifest still generation A's. Every way into a snapshot directory must
// either fail with ingest.ErrImageMismatch naming the image that is not the
// one its manifest entry records, or return exactly A — never A's identity
// over B's bytes (which a later ReloadSnapshot to the genuine A would then
// adopt wholesale, as "unchanged").
func TestMidWriteSnapshotNeverMixesGenerations(t *testing.T) {
	xmlA, xmlB := midWriteDocs()
	load := func(xml string) *Corpus {
		c, err := LoadString(xml, WithShards(3))
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(c.Close)
		return c
	}
	genA, genB := load(xmlA), load(xmlB)

	// Genuine A and B in directories of their own, for reference and as
	// generations to reload from.
	dirA, dirB := filepath.Join(t.TempDir(), "a.xtsnap"), filepath.Join(t.TempDir(), "b.xtsnap")
	if err := genA.SaveSnapshot(dirA); err != nil {
		t.Fatal(err)
	}
	if err := genB.SaveSnapshot(dirB); err != nil {
		t.Fatal(err)
	}

	// The mid-write directory: A, refreshed in place to B, A's manifest
	// bytes put back.
	dir := filepath.Join(t.TempDir(), "midwrite.xtsnap")
	if err := genA.SaveSnapshot(dir); err != nil {
		t.Fatal(err)
	}
	manifestPath := filepath.Join(dir, ingest.ManifestName)
	manifestA, err := os.ReadFile(manifestPath)
	if err != nil {
		t.Fatal(err)
	}
	if err := genB.SaveSnapshot(dir); err != nil {
		t.Fatal(err)
	}
	manifestB, err := os.ReadFile(manifestPath)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(manifestPath, manifestA, 0o644); err != nil {
		t.Fatal(err)
	}
	mA, err := ingest.DecodeManifest(manifestA)
	if err != nil {
		t.Fatal(err)
	}
	mB, err := ingest.DecodeManifest(manifestB)
	if err != nil {
		t.Fatal(err)
	}
	// The images the refresh replaced: any of them may be the one a reader
	// trips on (shard images open in parallel).
	var moved []string
	if mA.Analysis.ImageHash != mB.Analysis.ImageHash {
		moved = append(moved, mA.Analysis.File)
	}
	for i, e := range mA.Shards {
		if e.ImageHash != mB.Shards[i].ImageHash {
			moved = append(moved, e.File)
		}
	}
	if len(moved) != 2 || moved[0] != mA.Analysis.File {
		t.Fatalf("the refresh should have replaced the analysis image and one shard image, replaced %v", moved)
	}

	// refused reports whether err is the classified refusal; any other
	// error fails the test.
	refused := func(t *testing.T, reader string, err error) bool {
		t.Helper()
		if err == nil {
			return false
		}
		if !errors.Is(err, ingest.ErrImageMismatch) {
			t.Fatalf("%s: unclassified error on a mid-write directory: %v", reader, err)
		}
		for _, file := range moved {
			if strings.Contains(err.Error(), file) {
				return true
			}
		}
		t.Fatalf("%s: error names none of the replaced images %v: %v", reader, moved, err)
		return true
	}
	srcA := ingest.SourceOf(genA.InternalShards())
	exactlyA := func(t *testing.T, reader string, c *Corpus) {
		t.Helper()
		sc := c.InternalShards()
		if got := ingest.SourceOf(sc); remote.Fingerprint(got) != remote.Fingerprint(srcA) ||
			remote.Fingerprint(c.data.Load().gen.Source) != remote.Fingerprint(srcA) {
			t.Fatalf("%s: loaded content %x under identity %x, want generation A %x", reader,
				remote.Fingerprint(got), remote.Fingerprint(c.data.Load().gen.Source), remote.Fingerprint(srcA))
		}
		compareCorpora(t, reader, c, genA)
	}

	t.Run("ingest.Load", func(t *testing.T) {
		g, err := ingest.Load(dir)
		if refused(t, "ingest.Load", err) {
			return
		}
		if got := ingest.SourceOf(g.Corpus); remote.Fingerprint(got) != remote.Fingerprint(g.Source) {
			t.Fatalf("ingest.Load returned identity %x over content %x", remote.Fingerprint(g.Source), remote.Fingerprint(got))
		}
		if got, want := analysisFacts(g.Corpus.Analysis()), analysisFacts(genA.analysis()); got != want {
			t.Fatalf("ingest.Load returned A's shards under another generation's analysis\nwant %s\ngot  %s", want, got)
		}
	})
	t.Run("LoadSnapshot", func(t *testing.T) {
		c, err := LoadSnapshot(dir)
		if refused(t, "LoadSnapshot", err) {
			return
		}
		defer c.Close()
		exactlyA(t, "LoadSnapshot", c)
	})
	// ReloadSnapshot from a generation that lines up with the manifest (B:
	// two shards adopted, one image read) and from one that does not (one
	// shard: every image read).
	for name, from := range map[string]func() (*Corpus, error){
		"aligned":   func() (*Corpus, error) { return LoadSnapshot(dirB) },
		"unaligned": func() (*Corpus, error) { return LoadString(xmlB) },
	} {
		t.Run("ReloadSnapshot/"+name, func(t *testing.T) {
			c, err := from()
			if err != nil {
				t.Fatal(err)
			}
			defer c.Close()
			before := renderAnswers(t, c, []string{"zzzfresh", "store texas"})
			if _, err := c.ReloadSnapshot(dir); refused(t, "ReloadSnapshot", err) {
				// A refused reload leaves the old generation serving.
				if after := renderAnswers(t, c, []string{"zzzfresh", "store texas"}); after != before {
					t.Fatalf("a refused reload changed the answers\nbefore %s\nafter  %s", before, after)
				}
				// And the genuine generation still loads over it, decoding
				// what really differs rather than adopting it as unchanged.
				if _, err := c.ReloadSnapshot(dirA); err != nil {
					t.Fatalf("ReloadSnapshot to the genuine generation: %v", err)
				}
			}
			exactlyA(t, "ReloadSnapshot/"+name, c)
		})
	}
	t.Run("remote.OpenSnapshot", func(t *testing.T) {
		rt, err := remote.OpenSnapshot(dir, [][]string{{"127.0.0.1:1"}})
		if refused(t, "remote.OpenSnapshot", err) {
			return
		}
		defer rt.Close()
		if got, want := analysisFacts(rt.Analysis()), analysisFacts(genA.analysis()); got != want {
			t.Fatalf("router pairs generation A's placement with another generation's analysis\nwant %s\ngot  %s", want, got)
		}
	})
}
