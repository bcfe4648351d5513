// Shard-server mode: instead of the HTTP demo, extractd -shard-server
// serves a snapshot's evaluation subset — any snapshot, one shard or many —
// over the remote wire protocol to routers (extractd -router, or any
// extract.Connect client).
// Every server loads the full snapshot — mmap'd packed images, so the
// resident cost is paged in on demand — but evaluates only the shards its
// replica group owns under the manifest's rendezvous placement; the full
// corpus stays available for the whole-document fallback any replica can
// serve. See README.md in this directory for the ops runbook.

package main

import (
	"context"
	"encoding/json"
	"fmt"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"path/filepath"
	"strings"
	"sync/atomic"
	"syscall"
	"time"

	"extract/internal/ingest"
	"extract/internal/remote"
	"extract/internal/telemetry"
)

// runShardServer is the -shard-server entry point: load the snapshot, own
// group `group` of `groups`, serve until SIGINT/SIGTERM. A -watch interval
// polls the snapshot manifest and swaps generations online (Server.Swap),
// pairing with the routers' own ReloadSnapshot. A -metrics-addr serves the
// shard server's own telemetry over HTTP next to the wire listener.
func runShardServer(addr, metricsAddr, dir string, group, groups int, watch time.Duration) {
	if dir == "" {
		log.Fatal("extractd: -shard-server requires -snapshot <dir>")
	}
	if groups < 1 || group < 0 || group >= groups {
		log.Fatalf("extractd: -shard-group %d of -shard-groups %d out of range", group, groups)
	}
	loaded, err := ingest.Load(dir)
	if err != nil {
		log.Fatalf("extractd: load snapshot %s: %v", dir, err)
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		log.Fatalf("extractd: listen %s: %v", addr, err)
	}
	reg := telemetry.NewRegistry()
	owned := remote.OwnedShards(loaded.Source, group, groups)
	srv := remote.NewServer(loaded.Corpus,
		remote.WithOwnedShards(owned),
		remote.WithServerTag(ln.Addr().String()),
		remote.WithServerTelemetry(reg))
	log.Printf("extractd: shard server on %s: group %d/%d owns %d of %d shards from %s",
		ln.Addr(), group, groups, len(owned), len(loaded.Source.Shards), dir)

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	var draining atomic.Bool
	if metricsAddr != "" {
		mln, err := net.Listen("tcp", metricsAddr)
		if err != nil {
			log.Fatalf("extractd: listen %s: %v", metricsAddr, err)
		}
		log.Printf("extractd: shard-server metrics on %s", mln.Addr())
		go func() {
			httpSrv := &http.Server{Handler: shardServerMux(reg, srv, &draining)}
			if err := httpSrv.Serve(mln); err != nil && ctx.Err() == nil {
				log.Printf("extractd: shard-server metrics serve: %v", err)
			}
		}()
	}
	if watch > 0 {
		go watchSnapshot(ctx, srv, loaded, dir, group, groups, watch)
	}
	go func() {
		<-ctx.Done()
		draining.Store(true)
		log.Printf("extractd: shard server shutting down")
		srv.Close()
	}()
	srv.Serve(ln)
}

// shardServerMux builds the shard server's observability surface: GET
// /metrics serves the server's own registry (request counts by kind and
// outcome, per-stage latency histograms) in Prometheus text format, and
// GET /healthz reports the served generation's fingerprint, the owned
// shard set, and whether shutdown has begun draining. It is a separate
// tiny mux — the wire listener stays pure protocol.
func shardServerMux(reg *telemetry.Registry, srv *remote.Server, draining *atomic.Bool) *http.ServeMux {
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodGet {
			writeError(w, http.StatusMethodNotAllowed, "GET only")
			return
		}
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		if err := telemetry.WritePrometheus(w, telemetry.Instance{Snap: reg.Snapshot()}); err != nil {
			log.Printf("extractd: shard-server metrics: %v", err)
		}
	})
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodGet {
			writeError(w, http.StatusMethodNotAllowed, "GET only")
			return
		}
		status := "ok"
		if draining.Load() {
			status = "draining"
		}
		w.Header().Set("Content-Type", "application/json")
		json.NewEncoder(w).Encode(map[string]any{
			"status":       status,
			"fingerprint":  fmt.Sprintf("%016x", srv.Fingerprint()),
			"shards_owned": srv.Owned(),
			"shards_total": srv.NumShards(),
			"draining":     draining.Load(),
		})
	})
	return mux
}

// watchSnapshot polls the snapshot manifest's mtime and swaps the server
// from the generation it serves onto the new one when it changes (see
// snapshotWatcher.check).
func watchSnapshot(ctx context.Context, srv *remote.Server, served *ingest.Generation, dir string, group, groups int, interval time.Duration) {
	w := newSnapshotWatcher(srv, served, dir, group, groups, interval)
	tick := time.NewTicker(interval)
	defer tick.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-tick.C:
			w.check(time.Now())
		}
	}
}

// snapshotWatcher is a shard server's -watch state: the generation served,
// and the sourceWatch over its manifest.
type snapshotWatcher struct {
	srv           *remote.Server
	served        *ingest.Generation
	dir           string
	group, groups int
	interval      time.Duration
	sourceWatch
}

func newSnapshotWatcher(srv *remote.Server, served *ingest.Generation, dir string, group, groups int, interval time.Duration) *snapshotWatcher {
	return &snapshotWatcher{srv: srv, served: served, dir: dir, group: group, groups: groups, interval: interval,
		sourceWatch: newSourceWatch(filepath.Join(dir, ingest.ManifestName))}
}

// check is one watcher tick, on the dataset watcher's rule (sourceWatch.due).
// A manifest that moved since the served generation loaded is opened as a
// delta and swapped in. A directory that refuses to load
// (ingest.ErrImageMismatch, ingest.ErrSnapshotChanging, ...) leaves the old
// generation serving and is retried with backoff, not re-read and re-hashed
// every tick, with one log line per failure streak.
func (w *snapshotWatcher) check(now time.Time) {
	fi, due := w.due(now)
	if !due {
		return
	}
	next, err := swapSnapshot(w.srv, w.served, w.dir, w.group, w.groups)
	if err != nil {
		if w.failed(now, w.interval) == 1 {
			log.Printf("extractd: reload snapshot %s: %v — still serving the loaded generation; retrying with backoff", w.dir, err)
		}
		return
	}
	w.served = next
	w.loaded(fi)
}

// swapSnapshot is one shard-server reload: open dir as a delta against the
// generation being served — shards whose content hash did not move are
// adopted, document and packed index intact, and only the changed images
// are verified and decoded — then swap the server onto it, re-deriving the
// group's placement subset. It returns the generation now served.
func swapSnapshot(srv *remote.Server, served *ingest.Generation, dir string, group, groups int) (*ingest.Generation, error) {
	next, reused, err := ingest.LoadDelta(dir, served)
	if err != nil {
		return nil, err
	}
	old := srv.Fingerprint()
	srv.Swap(next, remote.WithOwnedShards(remote.OwnedShards(next.Source, group, groups)))
	n := next.Corpus.NumShards()
	log.Printf("extractd: shard server swapped snapshot generation %016x -> %016x (%d/%d shards rebuilt, %d reused)",
		old, srv.Fingerprint(), n-reused, n, reused)
	return next, nil
}

// parseReplicaGroups parses the -router topology: replica groups separated
// by ';', replica addresses within a group by ','. Whitespace is ignored.
func parseReplicaGroups(s string) [][]string {
	var groups [][]string
	for _, g := range strings.Split(s, ";") {
		var addrs []string
		for _, a := range strings.Split(g, ",") {
			if a = strings.TrimSpace(a); a != "" {
				addrs = append(addrs, a)
			}
		}
		if len(addrs) > 0 {
			groups = append(groups, addrs)
		}
	}
	return groups
}
