package ingest

import (
	"slices"
	"strings"
	"testing"

	"extract/xmltree"
)

// splitAfterBase is the first input of the split-equivalence seeds: a
// declaration, a DOCTYPE, and four children one a line.
const splitAfterBase = "<?xml version=\"1.0\"?>\n<!DOCTYPE r [<!ELEMENT r (c*)>]>\n<r>\n" +
	"  <c n=\"1\"><d>one</d></c>\n" +
	"  <c n=\"2\"><d>two</d></c>\n" +
	"  <c n=\"3\"><d>three</d></c>\n" +
	"  <c n=\"4\"><d>four</d></c>\n" +
	"</r>\n"

// splitAfterSeeds are (old, new) input pairs: new is old edited where a
// match against old's layout decides something.
func splitAfterSeeds() [][2]string {
	base := splitAfterBase
	edit := func(old, new string) [2]string { return [2]string{base, strings.Replace(base, old, new, 1)} }
	repeated := func(n int) string {
		return "<r>\n" + strings.Repeat("  <c><d>same</d></c>\n", n) + "</r>\n"
	}
	return [][2]string{
		{base, base},
		// A child edited in place, the first; grown, a middle one; shrunk,
		// the last.
		edit("one", "uno"),
		edit("two", "twenty-two"),
		edit("four", "4"),
		// A child inserted, a child deleted, two merged by a moved end tag,
		// an end tag deleted so that a child's scan runs past the run after
		// it.
		edit("  <c n=\"3\">", "  <c n=\"2b\"/>\n  <c n=\"3\">"),
		edit("  <c n=\"3\"><d>three</d></c>\n", ""),
		edit("<d>two</d></c>\n  <c n=\"3\"><d>three</d></c>", "<d>two</d>\n  <c n=\"3\"><d>three</d></c></c>"),
		edit("<d>three</d></c>", "<d>three</d>"),
		// The DOCTYPE and the root tag, at the same length and another; the
		// renamed root's end tag mismatches.
		edit("(c*)", "(d*)"),
		edit("(c*)", "(c|d)*"),
		edit("<r>", "<s>"),
		edit("<r>", "<r >"),
		edit("<r>\n", "<r>\n\n"),
		// A comment in a gap, text in a gap (no split), the tail.
		edit("</c>\n  <c n=\"3\">", "</c>\n  <!-- a comment -->\n  <c n=\"3\">"),
		edit("</c>\n  <c n=\"4\">", "</c>\n  text <c n=\"4\">"),
		edit("</r>\n", "</r>\n<!-- after -->\n"),
		// Repeated children, so the runs from either end could overlap.
		{repeated(4), repeated(3)},
		{repeated(4), repeated(5)},
		{repeated(4), repeated(4)},
		// A truncated input.
		{base, base[:len(base)/2]},
	}
}

// FuzzSplitAfterMatchesSplit: for any input that splits and any second
// input, the split of the second against the first's layout (SplitAfter)
// is SplitBytes's — nil alike, or the same root, internal subset and
// segments — and the layout BuildSplit would remember of it, hashes carried
// over the jumps included, is the one a fresh split's hashes make.
func FuzzSplitAfterMatchesSplit(f *testing.F) {
	for _, p := range splitAfterSeeds() {
		f.Add([]byte(p[0]), []byte(p[1]))
	}
	f.Fuzz(func(t *testing.T, a, b []byte) {
		old := xmltree.SplitBytes(a)
		if old == nil {
			return
		}
		prev := &Generation{layout: layoutOf(old, nil)}
		got, want := SplitAfter(b, prev), xmltree.SplitBytes(b)
		if (got == nil) != (want == nil) {
			t.Fatalf("split after %q: nil %v; SplitBytes: nil %v", a, got == nil, want == nil)
		}
		if want == nil {
			return
		}
		if got.Root != want.Root || got.InternalSubset != want.InternalSubset || !slices.Equal(got.Segments, want.Segments) {
			t.Fatalf("split after %q: %q %q %v; SplitBytes: %q %q %v",
				a, got.Root, got.InternalSubset, got.Segments, want.Root, want.InternalSubset, want.Segments)
		}
		if !slices.Equal(layoutOf(got, prev.layout), layoutOf(want, nil)) {
			t.Fatalf("split after %q: the layout carried over %d jumps is not the input's", a, len(got.Jumped))
		}
	})
}
