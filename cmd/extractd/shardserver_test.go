package main

import (
	"bytes"
	"context"
	"log"
	"net"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
	"time"

	"extract/internal/ingest"
	"extract/internal/remote"
	"extract/internal/search"
	"extract/internal/shard"
	"extract/xmltree"
)

// TestShardServerDeltaSwap pins what a -shard-server -watch swap costs: the
// watcher opens the refreshed directory as a delta against the generation it
// serves, so after a one-shard refresh the unchanged shards cross the swap
// as the very same documents and packed indexes, only the changed one is
// decoded, the log line says so — and the tier answers exactly like a fresh
// local load of the new generation.
func TestShardServerDeltaSwap(t *testing.T) {
	dir := t.TempDir()
	if err := ingest.Snapshot(dir, shard.Build(snapshotDoc(false), 3)); err != nil {
		t.Fatal(err)
	}
	served, err := ingest.Load(dir)
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := remote.NewServer(served.Corpus, remote.WithOwnedShards(remote.OwnedShards(served.Source, 0, 1)))
	go srv.Serve(ln)
	defer srv.Close()
	rt, err := remote.OpenSnapshot(dir, [][]string{{ln.Addr().String()}})
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()

	// Refresh the directory in place: one entity of one shard edited.
	if err := ingest.Snapshot(dir, shard.Build(snapshotDoc(true), 3)); err != nil {
		t.Fatal(err)
	}
	var logged bytes.Buffer
	logTo := log.Writer()
	log.SetOutput(&logged)
	next, err := swapSnapshot(srv, served, dir, 0, 1)
	log.SetOutput(logTo)
	if err != nil {
		t.Fatalf("swapSnapshot: %v", err)
	}
	if !strings.Contains(logged.String(), "(1/3 shards rebuilt, 2 reused)") {
		t.Fatalf("swap log line does not report 1 rebuilt / 2 reused: %q", logged.String())
	}

	changed := 0
	for i, s := range next.Corpus.Shards() {
		was := served.Corpus.Shards()[i]
		same := s.Doc == was.Doc && s.Index == was.Index
		if moved := next.Source.Shards[i] != served.Source.Shards[i]; moved == same {
			t.Fatalf("shard %d: content moved = %v, but document and index adopted = %v", i, moved, same)
		} else if moved {
			changed++
		}
	}
	if changed != 1 {
		t.Fatalf("the refresh changed %d shards, want 1", changed)
	}
	if got, want := srv.Fingerprint(), remote.Fingerprint(next.Source); got != want {
		t.Fatalf("server serves generation %016x after the swap, want %016x", got, want)
	}

	// Routed answers after the swap equal a fresh local load's.
	if err := rt.ReloadSnapshot(dir); err != nil {
		t.Fatal(err)
	}
	fresh, err := ingest.Load(dir)
	if err != nil {
		t.Fatal(err)
	}
	render := func(rs []*search.Result, err error) string {
		if err != nil {
			return "error: " + err.Error()
		}
		var b strings.Builder
		for _, r := range rs {
			tree, err := r.Tree(context.Background())
			if err != nil {
				return "error: " + err.Error()
			}
			b.WriteString(xmltree.XMLString(tree.Root))
			b.WriteByte('\n')
		}
		return b.String()
	}
	opts := search.Options{DistinctAnchors: true}
	for _, q := range []string{"zzzrestocked", "store texas", "retailer", "jeans store", "zzznope"} {
		want := render(fresh.Corpus.Search(q, opts))
		got := render(rt.SearchEnginesContext(context.Background(), q, opts, nil, nil))
		if got != want {
			t.Fatalf("q=%q: routed answer after the delta swap differs from a fresh load\nwant %s\ngot  %s", q, want, got)
		}
	}
	if render(fresh.Corpus.Search("zzzrestocked", opts)) == "" {
		t.Fatal("the edit is not visible in the new generation; the test proves nothing")
	}
}

// TestSnapshotWatcherBackoff drives a shard server's -watch loop with an
// injected clock against a directory that refuses to load — a refreshed
// manifest over an image still holding the old bytes, ingest.ErrImageMismatch
// — and requires the dataset watcher's rule: attempts at growing intervals,
// one log line for the streak, the old generation serving throughout, and
// the repaired directory adopted on the next attempt.
func TestSnapshotWatcherBackoff(t *testing.T) {
	dir := t.TempDir()
	if err := ingest.Snapshot(dir, shard.Build(snapshotDoc(false), 3)); err != nil {
		t.Fatal(err)
	}
	served, err := ingest.Load(dir)
	if err != nil {
		t.Fatal(err)
	}
	images, _ := filepath.Glob(filepath.Join(dir, "shard-*.xtix"))
	before := map[string][]byte{}
	for _, f := range images {
		if before[f], err = os.ReadFile(f); err != nil {
			t.Fatal(err)
		}
	}
	srv := remote.NewServer(served.Corpus, remote.WithOwnedShards(remote.OwnedShards(served.Source, 0, 1)))
	defer srv.Close()
	w := newSnapshotWatcher(srv, served, dir, 0, 1, time.Minute)

	// Refresh in place, then put the old bytes back under the changed image.
	if err := ingest.Snapshot(dir, shard.Build(snapshotDoc(true), 3)); err != nil {
		t.Fatal(err)
	}
	var changed string
	var refreshed []byte
	for _, f := range images {
		b, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(b, before[f]) {
			changed, refreshed = f, b
		}
	}
	if changed == "" {
		t.Fatal("the refresh rewrote no image; the test proves nothing")
	}
	if err := os.WriteFile(changed, before[changed], 0o644); err != nil {
		t.Fatal(err)
	}

	var logged bytes.Buffer
	logTo := log.Writer()
	log.SetOutput(&logged)
	defer log.SetOutput(logTo)

	servedPrint := srv.Fingerprint()
	clock := time.Unix(1_000_000_000, 0)
	var attempts []int // the minutes at which an attempt failed
	for minute := 0; minute <= 20; minute++ {
		w.check(clock.Add(time.Duration(minute) * time.Minute))
		if w.failures > len(attempts) {
			attempts = append(attempts, minute)
		}
	}
	if want := []int{0, 1, 3, 7, 15}; !slices.Equal(attempts, want) {
		t.Fatalf("failed attempts at minutes %v, want %v (backoff doubling from the -watch interval)", attempts, want)
	}
	if n := strings.Count(logged.String(), "reload snapshot"); n != 1 || !strings.Contains(logged.String(), "does not match its manifest entry") {
		t.Fatalf("the failure streak logged %d refusal lines, want 1 naming the mismatch: %q", n, logged.String())
	}
	if srv.Fingerprint() != servedPrint {
		t.Fatal("a refused directory changed the served generation")
	}

	// Repaired: the next attempt the backoff allows adopts it.
	if err := os.WriteFile(changed, refreshed, 0o644); err != nil {
		t.Fatal(err)
	}
	w.check(clock.Add(time.Hour))
	if w.failures != 0 || srv.Fingerprint() == servedPrint || srv.Fingerprint() != remote.Fingerprint(w.served.Source) {
		t.Fatalf("repaired directory not adopted: failures %d, fingerprint %016x (was %016x)", w.failures, srv.Fingerprint(), servedPrint)
	}
	if !strings.Contains(logged.String(), "(1/3 shards rebuilt, 2 reused)") {
		t.Fatalf("the recovering swap was not a one-shard delta: %q", logged.String())
	}
}

// TestSnapshotWatcherMissingManifest is the delete-then-restore case on a
// shard server, under the dataset watcher's rule: a manifest that vanishes
// is logged once and the loaded generation keeps serving; when another
// generation's manifest returns carrying the old mtime and, with the same
// shard count, the same size, the watcher still swaps onto it.
func TestSnapshotWatcherMissingManifest(t *testing.T) {
	dir := t.TempDir()
	if err := ingest.Snapshot(dir, shard.Build(snapshotDoc(false), 3)); err != nil {
		t.Fatal(err)
	}
	served, err := ingest.Load(dir)
	if err != nil {
		t.Fatal(err)
	}
	srv := remote.NewServer(served.Corpus, remote.WithOwnedShards(remote.OwnedShards(served.Source, 0, 1)))
	defer srv.Close()
	w := newSnapshotWatcher(srv, served, dir, 0, 1, time.Minute)
	manifest := filepath.Join(dir, ingest.ManifestName)
	old, err := os.Stat(manifest)
	if err != nil {
		t.Fatal(err)
	}

	var logged bytes.Buffer
	logTo := log.Writer()
	log.SetOutput(&logged)
	defer log.SetOutput(logTo)

	servedPrint := srv.Fingerprint()
	now := time.Unix(1_000_000_000, 0)
	if err := os.Remove(manifest); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		w.check(now)
	}
	if n := strings.Count(logged.String(), "will reload when the file returns"); n != 1 {
		t.Fatalf("the vanished manifest logged %d times over 3 ticks, want exactly 1: %q", n, logged.String())
	}
	if srv.Fingerprint() != servedPrint {
		t.Fatal("a vanished manifest changed the served generation")
	}

	if err := ingest.Snapshot(dir, shard.Build(snapshotDoc(true), 3)); err != nil {
		t.Fatal(err)
	}
	if err := os.Chtimes(manifest, old.ModTime(), old.ModTime()); err != nil {
		t.Fatal(err)
	}
	fi, err := os.Stat(manifest)
	if err != nil {
		t.Fatal(err)
	}
	next, err := ingest.Load(dir)
	if err != nil {
		t.Fatal(err)
	}
	if !fi.ModTime().Equal(old.ModTime()) || fi.Size() != old.Size() || remote.Fingerprint(next.Source) == servedPrint {
		t.Fatal("the restored manifest is not a new generation under the old mtime and size; the test proves nothing")
	}
	w.check(now)
	if got, want := srv.Fingerprint(), remote.Fingerprint(next.Source); got != want {
		t.Fatalf("server serves generation %016x after the manifest returned, want %016x", got, want)
	}
}
