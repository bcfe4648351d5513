package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

const storesXML = `
<stores>
  <store><name>Levis</name><state>Texas</state>
    <merchandises>
      <clothes><category>jeans</category><fitting>man</fitting></clothes>
      <clothes><category>jeans</category><fitting>man</fitting></clothes>
    </merchandises>
  </store>
  <store><name>ESprit</name><state>Texas</state>
    <merchandises>
      <clothes><category>outwear</category><fitting>woman</fitting></clothes>
      <clothes><category>outwear</category><fitting>woman</fitting></clothes>
    </merchandises>
  </store>
</stores>`

func writeData(t *testing.T) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "stores.xml")
	if err := os.WriteFile(path, []byte(storesXML), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func runCLI(t *testing.T, args ...string) (string, string, int) {
	t.Helper()
	var out, errb bytes.Buffer
	code := run(args, &out, &errb)
	return out.String(), errb.String(), code
}

func TestCLIQuery(t *testing.T) {
	data := writeData(t)
	out, _, code := runCLI(t, "-data", data, "-query", "store texas", "-bound", "4", "-ilist")
	if code != 0 {
		t.Fatalf("exit = %d", code)
	}
	for _, want := range []string{`key "Levis"`, `key "ESprit"`, "IList:", "jeans", "outwear"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
}

func TestCLIStats(t *testing.T) {
	data := writeData(t)
	out, _, code := runCLI(t, "-data", data, "-stats")
	if code != 0 {
		t.Fatalf("exit = %d", code)
	}
	for _, want := range []string{"entities:    clothes, store", "key(store) = name"} {
		if !strings.Contains(out, want) {
			t.Errorf("stats missing %q:\n%s", want, out)
		}
	}
}

func TestCLIXPath(t *testing.T) {
	data := writeData(t)
	out, _, code := runCLI(t, "-data", data,
		"-xpath", "//store[merchandises/clothes/category='jeans']",
		"-query", "jeans", "-bound", "4")
	if code != 0 {
		t.Fatalf("exit = %d", code)
	}
	if !strings.Contains(out, "Levis") || strings.Contains(out, "ESprit") {
		t.Errorf("xpath selection wrong:\n%s", out)
	}
}

func TestCLIIndexRoundTrip(t *testing.T) {
	data := writeData(t)
	snap := filepath.Join(t.TempDir(), "stores.xtsnap")
	_, errOut, code := runCLI(t, "-data", data, "-savesnapshot", snap)
	if code != 0 || !strings.Contains(errOut, "wrote snapshot") {
		t.Fatalf("save: code=%d err=%s", code, errOut)
	}
	query := []string{"-query", "store texas", "-bound", "4"}
	want, _, code := runCLI(t, append([]string{"-data", data}, query...)...)
	if code != 0 || !strings.Contains(want, "Levis") {
		t.Fatalf("query from data failed (code %d):\n%s", code, want)
	}
	got, errOut, code := runCLI(t, append([]string{"-snapshot", snap}, query...)...)
	if code != 0 || got != want {
		t.Errorf("query from snapshot (code %d, stderr %q):\n%s\nwant the -data output:\n%s", code, errOut, got, want)
	}

	// A plain file is not a snapshot directory: the loader's error, exit 1.
	out, errOut, code := runCLI(t, append([]string{"-snapshot", data}, query...)...)
	if code != 1 || out != "" || !strings.HasPrefix(errOut, "extract: ") || !strings.Contains(errOut, "manifest") {
		t.Errorf("-snapshot on a plain file: code=%d out=%q err=%q, want exit 1 with the ingest error", code, out, errOut)
	}
}

func TestCLINoResults(t *testing.T) {
	data := writeData(t)
	out, _, code := runCLI(t, "-data", data, "-query", "zzzz")
	if code != 0 || !strings.Contains(out, "no results") {
		t.Errorf("code=%d out=%s", code, out)
	}
}

func TestCLIErrors(t *testing.T) {
	if _, _, code := runCLI(t); code != 2 {
		t.Errorf("missing -data: code = %d", code)
	}
	data := writeData(t)
	if _, _, code := runCLI(t, "-data", data); code != 2 {
		t.Errorf("missing -query: code = %d", code)
	}
	if _, _, code := runCLI(t, "-data", "/nonexistent.xml", "-query", "x"); code != 1 {
		t.Errorf("bad file: code = %d", code)
	}
	if _, _, code := runCLI(t, "-data", data, "-xpath", "[[", "-query", "x"); code != 1 {
		t.Errorf("bad xpath: code = %d", code)
	}
	if _, _, code := runCLI(t, "-bogusflag"); code != 2 {
		t.Errorf("bad flag: code = %d", code)
	}
}
