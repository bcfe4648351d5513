package persist

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// refsToFile counts live references this process holds to path: memory
// mappings (lines of /proc/self/maps naming it) and open file descriptors
// (symlinks in /proc/self/fd resolving to it). Skips where /proc is
// unavailable.
func refsToFile(t *testing.T, path string) (maps, fds int) {
	t.Helper()
	data, err := os.ReadFile("/proc/self/maps")
	if err != nil {
		t.Skipf("cannot inspect /proc/self/maps: %v", err)
	}
	for _, line := range strings.Split(string(data), "\n") {
		if strings.Contains(line, path) {
			maps++
		}
	}
	ents, err := os.ReadDir("/proc/self/fd")
	if err != nil {
		t.Skipf("cannot inspect /proc/self/fd: %v", err)
	}
	for _, e := range ents {
		if dst, err := os.Readlink(filepath.Join("/proc/self/fd", e.Name())); err == nil && dst == path {
			fds++
		}
	}
	return maps, fds
}

// TestLoadFileFailureReleasesResources pins the loader error paths: a load
// that fails partway — truncated image, corrupt section, foreign bytes —
// must close its file descriptor and release its memory mapping, exactly
// like a successful load (TestRetiredVersionsRefused does the same for
// images of a retired version). A leak here compounds on every failed reload
// attempt of a watched dataset, which the reload loop retries forever.
func TestLoadFileFailureReleasesResources(t *testing.T) {
	c := goldenCorpus()
	var buf bytes.Buffer
	if err := Save(&buf, c); err != nil {
		t.Fatal(err)
	}
	good := buf.Bytes()
	bodyStart := len(magic) + 2 + 8*numSections
	corrupt := append([]byte(nil), good...)
	corrupt[bodyStart+100] ^= 0xFF

	dir := t.TempDir()
	cases := []struct {
		name    string
		data    []byte
		wantErr bool
	}{
		{"good", good, false},
		{"corrupt-section", corrupt, true},
		{"truncated-header", good[:len(magic)+3], true},
		{"truncated-body", good[:len(good)/2], true},
		{"foreign", []byte("definitely not an index image"), true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			path := filepath.Join(dir, tc.name)
			if err := os.WriteFile(path, tc.data, 0o644); err != nil {
				t.Fatal(err)
			}
			for i := 0; i < 20; i++ {
				_, err := LoadFile(path)
				if tc.wantErr && err == nil {
					t.Fatal("load unexpectedly succeeded")
				}
				if !tc.wantErr && err != nil {
					t.Fatal(err)
				}
			}
			if m, f := refsToFile(t, path); m != 0 || f != 0 {
				t.Errorf("%d mappings and %d fds still reference the file after 20 loads", m, f)
			}
		})
	}
}
