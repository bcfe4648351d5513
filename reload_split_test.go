package extract

import (
	"bytes"
	"errors"
	"reflect"
	"strings"
	"testing"

	"extract/internal/gen"
	"extract/xmltree"
)

// splitBaseDoc is the A side of the split cases: eight retailers, so a
// four-shard load has two top-level entities a block.
func splitBaseDoc() *xmltree.Document {
	return gen.Stores(gen.StoresConfig{Retailers: 8, StoresPerRetailer: 2, ClothesPerStore: 3, Seed: 71})
}

// inEntity replaces the first old at or after the start of top-level entity
// i of src, an XMLString serialization with one entity a line.
func inEntity(src string, i int, old, new string) string {
	at := -1
	for k := 0; k <= i; k++ {
		at += 1 + strings.Index(src[at+1:], "\n  <retailer>")
	}
	j := at + strings.Index(src[at:], old)
	return src[:j] + new + src[j+len(old):]
}

// blockOf returns, per top-level entity, the block a corpus holds it in.
func blockOf(c *Corpus) []int {
	var blocks []int
	for b, s := range c.data.Load().gen.Corpus.Shards() {
		for range s.Doc.Root.Children {
			blocks = append(blocks, b)
		}
	}
	return blocks
}

// TestReloadDeltaSplitCases drives a delta reload through the edits the
// split path decides on — a cut that moves, a whitespace-only edit,
// malformed bytes in one block, a root level a split cannot take, the node
// bound — and holds every one to a fresh load of the same bytes: the same
// corpus and identity when both accept, and when ParseBytes rejects the
// bytes, its very error, with the old generation still serving.
func TestReloadDeltaSplitCases(t *testing.T) {
	xmlA := xmltree.XMLString(splitBaseDoc().Root)
	grown := splitBaseDoc()
	for _, r := range grown.Root.Children[1:4] {
		for _, s := range r.ChildElements("store") {
			xmltree.Append(grown.Root.Children[0], xmltree.DeepCopy(s))
		}
	}
	baseNodes := splitBaseDoc().Len()

	cases := []struct {
		name     string
		xmlB     string
		maxNodes int
		check    func(t *testing.T, before, after *Corpus, stats DeltaStats, sp *xmltree.Split)
	}{
		{"the first entity grows, moving the cuts", xmltree.XMLString(grown.Root), 0,
			func(t *testing.T, before, after *Corpus, stats DeltaStats, sp *xmltree.Split) {
				was, is := blockOf(before), blockOf(after)
				moved := false
				for i := 1; i < len(is); i++ { // entities 1.. are byte-identical
					moved = moved || was[i] != is[i]
				}
				if !moved {
					t.Fatalf("no byte-identical entity changed block: %v, then %v", was, is)
				}
			}},
		{"a whitespace-only edit", inEntity(xmlA, 5, "\n    <store", "\n\n  \t\n    <store"), 0,
			func(t *testing.T, before, after *Corpus, stats DeltaStats, sp *xmltree.Split) {
				if stats.Reused != stats.Shards || !sp.Parsed(5) || sp.Parsed(0) {
					t.Fatalf("%+v, entity 5 parsed %v, entity 0 parsed %v: want its block parsed, and adopted for its content",
						stats, sp.Parsed(5), sp.Parsed(0))
				}
			}},
		{"malformed bytes in one block", inEntity(xmlA, 5, "</store>", "</stor>"), 0, nil},
		{"text at the root", strings.Replace(xmlA, "</retailers>", "tail</retailers>", 1), 0,
			func(t *testing.T, before, after *Corpus, stats DeltaStats, sp *xmltree.Split) {
				if sp != nil {
					t.Fatal("the input was split; want a whole parse")
				}
			}},
		{"over the node bound", xmlA, baseNodes - 1, nil},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			opts := []Option{WithShards(4), WithQueryCache(0)}
			c, err := LoadString(xmlA, opts...)
			if err != nil {
				t.Fatal(err)
			}
			defer c.Close()
			before := &Corpus{}
			before.data.Store(c.data.Load())
			var popts []xmltree.ParseOption
			if tc.maxNodes > 0 {
				opts = append(opts, WithMaxNodes(tc.maxNodes))
				popts = append(popts, xmltree.WithMaxNodes(tc.maxNodes))
			}
			var sp *xmltree.Split
			testHookSplit = func(s *xmltree.Split) { sp = s }
			stats, err := c.ReloadDelta(strings.NewReader(tc.xmlB), opts...)
			testHookSplit = nil
			fresh, ferr := LoadString(tc.xmlB, opts...)
			if _, perr := xmltree.ParseString(tc.xmlB, popts...); perr != nil {
				if err == nil || err.Error() != perr.Error() || ferr == nil || ferr.Error() != perr.Error() {
					t.Fatalf("ParseBytes rejects with %v; the reload with %v, a fresh load with %v", perr, err, ferr)
				}
				if tc.maxNodes > 0 && !errors.Is(err, xmltree.ErrTooLarge) {
					t.Fatalf("reload error %v, want ErrTooLarge", err)
				}
				if c.data.Load() != before.data.Load() {
					t.Fatal("a refused reload replaced the serving generation")
				}
				return
			}
			if err != nil || ferr != nil {
				t.Fatalf("reload: %v; fresh load: %v", err, ferr)
			}
			defer fresh.Close()
			if !bytes.Equal(corpusBytes(t, c.InternalShards()), corpusBytes(t, fresh.InternalShards())) {
				t.Fatalf("delta (%+v) differs from a fresh load", stats)
			}
			if g, w := c.data.Load().gen.Source, fresh.data.Load().gen.Source; !reflect.DeepEqual(g, w) {
				t.Fatalf("delta identity %+v, fresh load's %+v", g, w)
			}
			tc.check(t, before, c, stats, sp)
		})
	}
}

// deltaSeeds are the second documents the delta fuzzers start from, each an
// edit of base (splitBaseDoc's serialization): base itself, a broken tag, a
// whitespace edit, text edits inside one entity, a root attribute, root
// text, a byte-order mark with a declaration, and a DOCTYPE.
func deltaSeeds(base string) []string {
	return []string{
		base,
		inEntity(base, 5, "</store>", "</stor>"),
		inEntity(base, 2, "\n    <store", "\n\n    <store"),
		inEntity(base, 6, "<name>", "<name>re"),
		inEntity(base, 3, "</name>", " Outlet</name>"),
		strings.Replace(base, "<retailers>", `<retailers k="v">`, 1),
		strings.Replace(base, "</retailers>", "tail</retailers>", 1),
		"\uFEFF<?xml version=\"1.0\"?>" + base,
		`<!DOCTYPE retailers [<!ELEMENT retailers (retailer*)>]>` + base,
	}
}

// FuzzReloadDeltaMatchesLoad: for a base document and any byte string, a
// delta reload onto the bytes and a fresh load of them accept or reject
// alike — with ParseBytes's error when ParseBytes rejects the bytes, the old
// generation still serving — and when they accept, they build the same
// corpus byte for byte, with the same identity. A reload back onto the base
// then builds the base's corpus again: entities copied out of a generation
// that copied them are still the entities.
func FuzzReloadDeltaMatchesLoad(f *testing.F) {
	base := xmltree.XMLString(splitBaseDoc().Root)
	for _, b := range deltaSeeds(base) {
		f.Add([]byte(base), []byte(b), uint8(4))
	}
	f.Fuzz(func(t *testing.T, a, b []byte, shards uint8) {
		opts := []Option{WithShards(int(shards % 6)), WithQueryCache(0)}
		c, err := LoadString(string(a), opts...)
		if err != nil {
			return
		}
		defer c.Close()
		before := c.data.Load()
		base, baseSource := corpusBytes(t, c.InternalShards()), before.gen.Source
		_, rerr := c.ReloadDelta(bytes.NewReader(b), opts...)
		fresh, lerr := LoadString(string(b), opts...)
		if (rerr == nil) != (lerr == nil) {
			t.Fatalf("reload: %v; fresh load: %v", rerr, lerr)
		}
		if _, perr := xmltree.ParseBytes(b); perr != nil && (lerr == nil || lerr.Error() != perr.Error()) {
			t.Fatalf("ParseBytes rejects with %v, a fresh load with %v", perr, lerr)
		}
		if rerr != nil {
			if rerr.Error() != lerr.Error() || c.data.Load() != before {
				t.Fatalf("reload refused with %v (fresh load: %v), serving generation replaced: %v",
					rerr, lerr, c.data.Load() != before)
			}
			return
		}
		defer fresh.Close()
		if !bytes.Equal(corpusBytes(t, c.InternalShards()), corpusBytes(t, fresh.InternalShards())) {
			t.Fatal("delta differs from a fresh load")
		}
		if g, w := c.data.Load().gen.Source, fresh.data.Load().gen.Source; !reflect.DeepEqual(g, w) {
			t.Fatalf("delta identity %+v, fresh load's %+v", g, w)
		}
		if _, err := c.ReloadDelta(bytes.NewReader(a), opts...); err != nil {
			t.Fatalf("reload back onto the base: %v", err)
		}
		if !bytes.Equal(corpusBytes(t, c.InternalShards()), base) {
			t.Fatal("a delta back onto the base differs from its fresh load")
		}
		if g := c.data.Load().gen.Source; !reflect.DeepEqual(g, baseSource) {
			t.Fatalf("delta identity back onto the base %+v, its fresh load's %+v", g, baseSource)
		}
	})
}

// TestDeltaSplitScansWhatMoved: a delta reload from XML scans what its edit
// moved and passes over the rest (extract_reload_bytes_total). After a
// one-store edit in the first, a middle or the last retailer, the bytes
// scanned are that retailer's, the head's and the tail's — at 16 retailers
// and at 64 alike, so the scan grows with the change, not the file. A root
// rename moves the head's length and the tail both, so nothing matches and
// every byte is scanned.
func TestDeltaSplitScansWhatMoved(t *testing.T) {
	opts := []Option{WithShards(4), WithQueryCache(0)}
	reload := func(t *testing.T, base, next string) (scanned, skipped int64) {
		t.Helper()
		c, err := LoadString(base, opts...)
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		sc, sk := c.reloadBytes()
		if _, err := c.ReloadDelta(strings.NewReader(next), opts...); err != nil {
			t.Fatal(err)
		}
		return sc.Value(), sk.Value()
	}
	for _, retailers := range []int{16, 64} {
		base := xmltree.XMLString(gen.Stores(gen.StoresConfig{Retailers: retailers, StoresPerRetailer: 4, ClothesPerStore: 3, Seed: 63}).Root)
		for _, edited := range []int{0, retailers / 2, retailers - 1} {
			next := inEntity(base, edited, "</city>", "ville</city>")
			sp := xmltree.SplitBytes([]byte(next))
			want := len(sp.Between(0)) + len(sp.Bytes(edited)) + len(sp.Between(len(sp.Segments)))
			scanned, skipped := reload(t, base, next)
			if scanned != int64(want) || skipped != int64(len(next)-want) {
				t.Errorf("%d retailers, retailer %d edited: %d bytes scanned, %d skipped; want %d scanned (head, retailer, tail) of %d",
					retailers, edited, scanned, skipped, want, len(next))
			}
		}
		renamed := strings.Replace(strings.Replace(base, "<retailers>", "<shops>", 1), "</retailers>", "</shops>", 1)
		if scanned, skipped := reload(t, base, renamed); scanned != int64(len(renamed)) || skipped != 0 {
			t.Errorf("%d retailers, the root renamed: %d bytes scanned, %d skipped; want all %d scanned", retailers, scanned, skipped, len(renamed))
		}
	}
}
