package main

import (
	"context"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"runtime/metrics"
	"strings"
	"sync"
	"time"

	"extract"
	"extract/internal/ingest"
	"extract/internal/remote"
)

// workloadSpec is one traffic mix. Each run is a fresh process with one
// closed-loop client and zero think time; the measured phase issues whole
// passes (see passOps) until its time is up.
type workloadSpec struct {
	name, why string

	routed  bool // serve through two in-process shard-server groups over loopback TCP
	cached  bool // query cache at the product's default budget (64 MiB); else off
	reloads bool // a one-shard delta reload opens every pass

	pool    int     // leading pool queries in play
	zipf    float64 // > 1: pass ops are Zipf-weighted over the pool; else each query once
	passLen int     // ops per pass when Zipf-weighted

	blockOps int // ops between yardstick marks
}

var workloads = []workloadSpec{
	{
		name: "cold_local", why: "cache off, every pool query once a pass on 4 local shards: each request pays lookup, SLCA/ELCA, merge, snippets and render",
		pool: 300, blockOps: 25,
	},
	{
		name: "warm_zipf", why: "default cache, Zipf(1.2) over a pool larger than the cache: hits, misses, eviction and admission all run",
		cached: true, pool: 800, zipf: 1.2, passLen: 2000, blockOps: 200,
	},
	{
		name: "cold_routed", why: "cold_local's exact op sequence through the router and two shard-server groups: the wire and codec tax",
		routed: true, pool: 300, blockOps: 15,
	},
	{
		name: "reload_mix", why: "a one-shard delta reload, then 400 Zipf queries over a pool that fits the cache: invalidation and re-warming",
		cached: true, reloads: true, pool: 64, zipf: 1.2, passLen: 400, blockOps: 100,
	},
}

func findWorkload(name string) (workloadSpec, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workloadSpec{}, false
}

func (w workloadSpec) newStream(seed int64) *stream {
	return newStream(seed, passOps(w.pool, w.passLen, w.zipf))
}

// cacheOptions leaves the product's default cache budget alone, or turns
// the cache off.
func (w workloadSpec) cacheOptions() []extract.Option {
	if w.cached {
		return nil
	}
	return []extract.Option{extract.WithQueryCache(0)}
}

func (w workloadSpec) loadOptions() []extract.Option {
	return append(w.cacheOptions(), extract.WithShards(corpusShards))
}

// tier is a set of in-process shard servers, one per replica group, each
// with its own load of the snapshot — what `extractd -shard-server` runs.
type tier struct {
	servers []*remote.Server
	addrs   [][]string
	wg      sync.WaitGroup
}

func startTier(dir string, groups int) (*tier, error) {
	t := &tier{}
	for g := 0; g < groups; g++ {
		loaded, err := ingest.Load(dir)
		if err != nil {
			t.close()
			return nil, fmt.Errorf("shard server %d: %w", g, err)
		}
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.close()
			return nil, fmt.Errorf("shard server %d: %w", g, err)
		}
		srv := remote.NewServer(loaded.Corpus,
			remote.WithOwnedShards(remote.OwnedShards(loaded.Source, g, groups)),
			remote.WithServerTag(ln.Addr().String()))
		t.servers = append(t.servers, srv)
		t.addrs = append(t.addrs, []string{ln.Addr().String()})
		t.wg.Add(1)
		go func() {
			defer t.wg.Done()
			srv.Serve(ln) // returns once Close has shut the listener
		}()
	}
	return t, nil
}

func (t *tier) close() {
	for _, s := range t.servers {
		s.Close()
	}
	t.wg.Wait()
}

const routedGroups = 2

// system is a workload's corpus, made servable from the XML file on disk.
type system struct {
	c        *extract.Corpus
	tier     *tier  // routed only
	snapshot string // routed only: the directory the tier serves
}

// open takes the source on disk to a corpus that has answered one query:
// the span setup_s times.
func (w workloadSpec) open(fx *fixture, firstQuery string) (*system, error) {
	c, err := extract.LoadFile(fx.fileA, w.loadOptions()...)
	if err != nil {
		return nil, err
	}
	s := &system{c: c}
	if w.routed {
		dir := filepath.Join(fx.dir, "snapshot")
		// A fresh directory every time: SaveSnapshot skips images that
		// are already on disk, which would make repeats cheaper than the
		// first set-up.
		if err := os.RemoveAll(dir); err != nil {
			return nil, err
		}
		err := c.SaveSnapshot(dir)
		c.Close()
		if err != nil {
			return nil, err
		}
		s.snapshot = dir
		if s.tier, err = startTier(dir, routedGroups); err != nil {
			return nil, err
		}
		if s.c, err = extract.Connect(dir, s.tier.addrs, w.cacheOptions()...); err != nil {
			s.tier.close()
			return nil, err
		}
	}
	if _, err := s.c.QueryContext(context.Background(), firstQuery, snippetBound, extract.WithMaxResults(maxResults)); err != nil {
		s.close()
		return nil, err
	}
	return s, nil
}

func (s *system) close() {
	s.c.Close()
	if s.tier != nil {
		s.tier.close()
	}
}

// render produces the response bytes of one request: every hit's result
// key and snippet XML.
func render(hits []*extract.Hit) string {
	var b strings.Builder
	for _, h := range hits {
		b.WriteString(h.Snippet.ResultKey())
		b.WriteByte('\n')
		b.WriteString(h.Snippet.XML())
		b.WriteByte('\n')
	}
	return b.String()
}

// answer runs one op end to end — query text in, response bytes out — and
// reports whether it succeeded: no error, at least one hit (pool queries
// are drawn from one subtree, so one is guaranteed), no snippet over the
// bound.
func answer(c *extract.Corpus, fx *fixture, o op) (string, bool) {
	hits, err := c.QueryContext(context.Background(), fx.pool[o.query], snippetBound, o.options()...)
	if err != nil || len(hits) == 0 {
		return "", false
	}
	for _, h := range hits {
		if h.Snippet.Edges() > snippetBound {
			return "", false
		}
	}
	return render(hits), true
}

// sample is one timed item of the measured phase.
type sample struct {
	block, pass int
	raw         float64 // ms
	query       bool    // false: a reload
}

// measurement is what the measured phase leaves behind.
type measurement struct {
	norm               *normaliser
	samples            []sample
	attempted, failed  int
	allocBytes, allocs uint64
	gcCycles           uint32
	gcCPU, totalCPU    float64 // CPU-seconds over the phase
	cacheBefore, cache extract.CacheStats
	liveFile           string
}

// measure drives the workload in whole passes until the time is up.
func (w workloadSpec) measure(s *system, fx *fixture, st *stream, y *yardstick, seconds float64) *measurement {
	m := &measurement{norm: newNormaliser(y), liveFile: fx.fileA}
	var before, after runtime.MemStats
	// account runs a stretch of work between two yardstick marks and
	// charges its allocations to the phase (the yardstick's own are left out).
	account := func(work func()) {
		runtime.ReadMemStats(&before)
		work()
		runtime.ReadMemStats(&after)
		m.allocBytes += after.TotalAlloc - before.TotalAlloc
		m.allocs += after.Mallocs - before.Mallocs
	}
	reload := func(block, pass int) {
		next := fx.other(m.liveFile)
		var stats extract.DeltaStats
		var err error
		raw := timeMS(func() { stats, err = s.c.ReloadDeltaFile(next, w.loadOptions()...) })
		m.samples = append(m.samples, sample{block: block, pass: pass, raw: raw})
		m.attempted++
		if err != nil || stats.Rebuilt != 1 || stats.Reused != corpusShards-1 {
			m.failed++
		}
		if err == nil {
			m.liveFile = next
		}
	}

	// Untimed warm-up: a whole pass when there is a cache to fill (and, with
	// reloads, so that the first timed reload finds it warm); else a third
	// of one, enough for the heap to reach its steady size — without it the
	// first timed pass ran 8 % slower than the rest.
	if w.reloads {
		reload(0, 0)
	}
	warmup := st.nextPass()
	if !w.cached {
		warmup = warmup[:len(warmup)/3]
	}
	for _, o := range warmup {
		answer(s.c, fx, o)
	}
	m.samples, m.attempted, m.failed = nil, 0, 0

	var gcBefore runtime.MemStats
	runtime.ReadMemStats(&gcBefore)
	cpuBefore := readCPU()
	m.cacheBefore, _ = s.c.QueryCacheStats()
	start := time.Now()
	for pass := 0; pass == 0 || time.Since(start).Seconds() < seconds; pass++ {
		if w.reloads {
			b := m.norm.mark()
			account(func() { reload(b, pass) })
		}
		ops := st.nextPass()
		for len(ops) > 0 {
			block := ops[:min(w.blockOps, len(ops))]
			ops = ops[len(block):]
			b := m.norm.mark()
			account(func() {
				for _, o := range block {
					var ok bool
					raw := timeMS(func() { _, ok = answer(s.c, fx, o) })
					m.attempted++
					if !ok {
						m.failed++
						continue
					}
					m.samples = append(m.samples, sample{block: b, pass: pass, raw: raw, query: true})
				}
			})
		}
	}
	m.norm.mark()
	runtime.ReadMemStats(&after)
	m.gcCycles = after.NumGC - gcBefore.NumGC
	cpuAfter := readCPU()
	m.gcCPU, m.totalCPU = cpuAfter[0]-cpuBefore[0], cpuAfter[1]-cpuBefore[1]
	m.cache, _ = s.c.QueryCacheStats()
	return m
}

// readCPU returns the process's GC and total CPU-seconds so far.
func readCPU() [2]float64 {
	s := []metrics.Sample{{Name: "/cpu/classes/gc/total:cpu-seconds"}, {Name: "/cpu/classes/user:cpu-seconds"}}
	metrics.Read(s)
	var out [2]float64
	for i := range s {
		if s[i].Value.Kind() == metrics.KindFloat64 {
			out[i] = s[i].Value.Float64()
		}
	}
	out[1] += out[0]
	return out
}

// summarise turns the measured phase into the end-to-end metrics and the
// per-layer metrics that are counters over the phase.
func (m *measurement) summarise(e2e, layers metricSet) (queries, passes int) {
	var lat, rawLat []float64
	type agg struct {
		ref, raw float64
		queries  int
	}
	byPass := map[int]*agg{}
	toRef := make([]float64, len(m.norm.calls)-1) // per block: reference ms per raw ms
	for b := range toRef {
		toRef[b] = m.norm.ref(b, 1)
	}
	for _, s := range m.samples {
		ref := s.raw * toRef[s.block]
		a := byPass[s.pass]
		if a == nil {
			a = &agg{}
			byPass[s.pass] = a
		}
		a.ref += ref
		a.raw += s.raw
		if s.query {
			a.queries++
			lat = append(lat, ref)
			rawLat = append(rawLat, s.raw)
		}
	}
	var rps, rawRPS []float64
	for _, a := range byPass {
		rps = append(rps, float64(a.queries)/(a.ref/1000))
		rawRPS = append(rawRPS, float64(a.queries)/(a.raw/1000))
	}
	queries = len(lat)
	e2e.set(endToEnd, "throughput_rps", median(rps))
	e2e.set(endToEnd, "latency_p50_ms", median(lat))
	e2e.set(endToEnd, "latency_p95_ms", quantile(lat, 0.95))
	e2e.set(endToEnd, "alloc_kb_per_req", float64(m.allocBytes)/1024/float64(queries))

	hits := m.cache.Hits - m.cacheBefore.Hits
	misses := m.cache.Misses - m.cacheBefore.Misses
	ratio := 0.0
	if hits+misses > 0 {
		ratio = float64(hits) / float64(hits+misses)
	}
	entryKB := 0.0
	if m.cache.Entries > 0 {
		entryKB = float64(m.cache.Bytes) / 1024 / float64(m.cache.Entries)
	}
	kreq := float64(queries) / 1000
	layers.set(perLayer, "serve.cache_hit_ratio", ratio)
	layers.set(perLayer, "serve.cache_evictions_per_kreq", float64(m.cache.Evictions-m.cacheBefore.Evictions)/kreq)
	layers.set(perLayer, "serve.cache_rejected_per_kreq", float64(m.cache.Rejected-m.cacheBefore.Rejected)/kreq)
	layers.set(perLayer, "serve.cache_entry_kb", entryKB)
	layers.set(perLayer, "runtime.allocs_per_req", float64(m.allocs)/float64(queries))
	layers.set(perLayer, "runtime.gc_cycles", float64(m.gcCycles))
	layers.set(perLayer, "runtime.gc_cpu_frac", m.gcCPU/m.totalCPU)
	yards := m.norm.all()
	layers.set(perLayer, "host.yardstick_ms", median(yards))
	layers.set(perLayer, "host.yardstick_cv", cv(yards))
	layers.set(perLayer, "host.raw_throughput_rps", median(rawRPS))
	layers.set(perLayer, "host.raw_latency_p50_ms", median(rawLat))
	return queries, len(byPass)
}

// bracket times fn between two sets of yardstick calls and returns its
// duration in reference ms, and the yardstick it was divided by.
func bracket(y *yardstick, fn func()) (refMS, yardMS float64) {
	n := newNormaliser(y)
	b := n.mark()
	raw := timeMS(fn)
	n.mark()
	return n.ref(b, raw), n.yard(b)
}

// releaseMemory returns the heap to the OS so that a repeated set-up starts
// from the same place as the first.
func releaseMemory() {
	runtime.GC()
	debug.FreeOSMemory()
}

// peakRSSMB reads the process's resident-set high-water mark.
func peakRSSMB() (float64, error) {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if strings.HasPrefix(line, "VmHWM:") {
			var kb float64
			if _, err := fmt.Sscanf(strings.TrimPrefix(line, "VmHWM:"), "%f", &kb); err != nil {
				return 0, err
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/self/status")
}
