package persist

import (
	"bytes"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"extract/internal/core"
	"extract/internal/gen"
	"extract/internal/search"
)

var updateGolden = flag.Bool("update", false, "rewrite the golden persist files")

func goldenCorpus() *core.Corpus {
	return core.BuildCorpus(gen.Figure1Corpus())
}

// TestGoldenFiles pins the on-disk format: Save must keep producing exactly
// the committed bytes, and the committed file must keep loading into a
// corpus that answers the paper's Figure 1 query. The format is versioned —
// an intentional change bumps the version byte, replaces the reader, freezes
// the previous golden as a retired version and writes the new one under a
// new name with -update.
func TestGoldenFiles(t *testing.T) {
	c := goldenCorpus()
	path := filepath.Join("testdata", "figure1.v5.golden")

	var saved bytes.Buffer
	if err := Save(&saved, c); err != nil {
		t.Fatal(err)
	}
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, saved.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("golden file missing (run with -update): %v", err)
	}
	if !bytes.Equal(saved.Bytes(), want) {
		t.Errorf("Save output drifted from golden (%d vs %d bytes); "+
			"format changes must bump the version", saved.Len(), len(want))
	}

	loaded, err := Load(bytes.NewReader(want))
	if err != nil {
		t.Fatal(err)
	}
	if loaded.Doc.Len() != c.Doc.Len() {
		t.Fatalf("%d nodes, want %d", loaded.Doc.Len(), c.Doc.Len())
	}
	if a, ok := loaded.Keys.KeyAttr("retailer"); !ok || a != "name" {
		t.Fatalf("retailer key = %q %v", a, ok)
	}
	outs, err := core.Pipeline(loaded, gen.Figure1Query, 13, search.Options{DistinctAnchors: true})
	if err != nil || len(outs) != 1 {
		t.Fatalf("pipeline %v (%d results)", err, len(outs))
	}
	if outs[0].IList.KeyValue != "Brook Brothers" {
		t.Fatalf("key = %q", outs[0].IList.KeyValue)
	}
	// The decoded prefilter answers soundly for every indexed keyword.
	pf := loaded.Index.Prefilter()
	for _, kw := range loaded.Index.Vocabulary() {
		if !pf.MayContain(kw) {
			t.Fatalf("prefilter misses indexed keyword %q", kw)
		}
	}
}

// TestRetiredVersionsRefused: the frozen images of the four versions this
// package used to read — figure1.legacy.golden (v1, varint), .packed (v2,
// no checksums), .checked (v3, no prefilter section), .prefilter (v4, with
// the DTD, dataguide and structural summary) — never regenerated, now pin
// the refusal. Each fails as ErrBadFormat naming the version it
// carries and the one this build reads, from bytes and from a file, and a
// refused file leaves no descriptor or mapping behind.
func TestRetiredVersionsRefused(t *testing.T) {
	for v, name := range map[int]string{1: "legacy", 2: "packed", 3: "checked", 4: "prefilter"} {
		t.Run(name, func(t *testing.T) {
			path, err := filepath.Abs(filepath.Join("testdata", "figure1."+name+".golden"))
			if err != nil {
				t.Fatal(err)
			}
			data, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("frozen golden missing (cannot be regenerated): %v", err)
			}
			if int(data[len(magic)]) != v {
				t.Fatalf("golden carries version %d, want %d", data[len(magic)], v)
			}
			check := func(how string, err error) {
				t.Helper()
				if !errors.Is(err, ErrBadFormat) {
					t.Fatalf("%s: err = %v, want ErrBadFormat", how, err)
				}
				for _, want := range []string{fmt.Sprintf("unsupported version %d", v), fmt.Sprintf("reads version %d", version), "rebuild"} {
					if !strings.Contains(err.Error(), want) {
						t.Errorf("%s: %q does not say %q", how, err, want)
					}
				}
			}
			_, err = Load(bytes.NewReader(data))
			check("Load", err)
			_, err = LoadBytes(data)
			check("LoadBytes", err)
			for i := 0; i < 20; i++ {
				_, err = LoadFile(path)
				check("LoadFile", err)
			}
			if m, f := refsToFile(t, path); m != 0 || f != 0 {
				t.Errorf("%d mappings and %d fds still reference the file after 20 refused loads", m, f)
			}
		})
	}
}
