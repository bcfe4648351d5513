package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/url"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"time"

	"extract"
)

// edgeQueries is how many distinct pool queries the edge probe sends.
const edgeQueries = 100

// edgeProbe prices the HTTP edge, which the in-process benchmark leaves
// out: it builds cmd/extractd, serves the live corpus from a subprocess
// with the cache off, sends pool queries over one keep-alive connection,
// and subtracts what the same queries cost in-process on a corpus
// configured the same way. Raw milliseconds, informational. When the build
// or the bind fails the probe is skipped with a note and reports zeros.
func edgeProbe(root string, fx *fixture, live string, res *result) {
	p50, overhead, err := runEdgeProbe(root, fx, live)
	if err != nil {
		res.Notes = append(res.Notes, "edge probe skipped: "+err.Error())
	}
	res.PerLayer.set(perLayer, "edge.http_p50_ms", p50)
	res.PerLayer.set(perLayer, "edge.http_overhead_ms", overhead)
}

func runEdgeProbe(root string, fx *fixture, live string) (p50, overhead float64, err error) {
	bin := filepath.Join(root, ".bench_build", "extractd")
	if err := os.MkdirAll(filepath.Dir(bin), 0o755); err != nil {
		return 0, 0, err
	}
	build := exec.Command("go", "build", "-o", bin, "./cmd/extractd")
	build.Dir = root
	if msg, err := build.CombinedOutput(); err != nil {
		return 0, 0, fmt.Errorf("build extractd: %v: %s", err, bytes.TrimSpace(msg))
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, 0, err
	}
	addr := ln.Addr().String()
	ln.Close()

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	srv := exec.CommandContext(ctx, bin, "-addr", addr, "-data", "bench="+live,
		"-shards", strconv.Itoa(corpusShards), "-cachemb", "0")
	if err := srv.Start(); err != nil {
		return 0, 0, err
	}
	defer func() {
		cancel() // kills the subprocess
		srv.Wait()
	}()
	client := &http.Client{Timeout: 30 * time.Second}
	defer client.CloseIdleConnections()
	ready := false
	for deadline := time.Now().Add(30 * time.Second); time.Now().Before(deadline); time.Sleep(50 * time.Millisecond) {
		if resp, err := client.Get("http://" + addr + "/readyz"); err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				ready = true
				break
			}
		}
	}
	if !ready {
		return 0, 0, fmt.Errorf("extractd on %s never became ready", addr)
	}

	local, err := extract.LoadFile(live, extract.WithShards(corpusShards), extract.WithQueryCache(0))
	if err != nil {
		return 0, 0, err
	}
	defer local.Close()

	n := edgeQueries
	if n > len(fx.pool) {
		n = len(fx.pool)
	}
	var httpMS, diffMS []float64
	for i, q := range fx.pool[:n] {
		u := "http://" + addr + "/?dataset=bench&bound=" + strconv.Itoa(snippetBound) + "&q=" + url.QueryEscape(q)
		var body []byte
		var status int
		viaHTTP := timeMS(func() {
			resp, gerr := client.Get(u)
			if gerr != nil {
				err = gerr
				return
			}
			body, err = io.ReadAll(resp.Body)
			resp.Body.Close()
			status = resp.StatusCode
		})
		if err != nil {
			return 0, 0, err
		}
		if status != http.StatusOK || !bytes.Contains(body, []byte(`class="hit"`)) {
			return 0, 0, fmt.Errorf("extractd answered %d without hits for %q", status, q)
		}
		inProcess := timeMS(func() { answer(local, fx, op{query: i}) })
		httpMS = append(httpMS, viaHTTP)
		diffMS = append(diffMS, viaHTTP-inProcess)
	}
	return median(httpMS), median(diffMS), nil
}
