package telemetry

import (
	"context"
	"math/rand/v2"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// TraceID identifies one query end to end: it is minted when the query
// enters the serving layer, propagated to shard servers in the wire
// protocol, stamped on slow-query log records, and indexes the
// recent-trace ring. Zero means "no trace" (a background or pre-tracing
// request).
type TraceID uint64

// traceIDState seeds and sequences trace IDs: a random per-process base
// (so IDs from different processes in a tier do not collide trivially)
// advanced by an atomic counter and scrambled through a SplitMix64 finisher
// so consecutive queries get well-distributed IDs.
var traceIDState = struct {
	base uint64
	ctr  atomic.Uint64
}{base: rand.Uint64()}

// NextTraceID mints a process-unique trace ID. It is a single atomic add
// plus a few multiplies — safe and cheap on the per-query hot path. The
// result is never zero.
func NextTraceID() TraceID {
	z := traceIDState.base + traceIDState.ctr.Add(1)*0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	z ^= z >> 31
	if z == 0 {
		z = 1
	}
	return TraceID(z)
}

// HopSpan records one remote call attempt made on behalf of a query: which
// replica was asked, whether it was a failover retry, how long the wire
// round trip took, and the server-side stage breakdown the peer reported.
// A query that fails over leaves one span per attempt, so the failed
// attempts and their causes stay visible next to the one that succeeded.
type HopSpan struct {
	// Kind is the remote call kind: eval, full, or stats.
	Kind string
	// Group is the replica-group label the call targeted ("0".."n-1", or
	// "any" for calls that may be served by any replica).
	Group string
	// Replica is the network address of the replica that handled (or
	// failed) this attempt.
	Replica string
	// Attempt is the zero-based attempt number within the call; attempts
	// after the first are failovers.
	Attempt int
	// Wire is the client-observed round-trip duration of this attempt,
	// including encode, network, and server time.
	Wire time.Duration
	// ServerDecode is the server-reported request decode duration (zero if
	// the attempt failed before a response).
	ServerDecode time.Duration
	// ServerEval is the server-reported evaluation duration.
	ServerEval time.Duration
	// ServerDigest is always zero from wire XR v4 on, which has no digest
	// round; the field stays for benchmark/, which still reads it.
	ServerDigest time.Duration
	// ServerEncode is the server-reported response encode duration.
	ServerEncode time.Duration
	// Err classifies why the attempt failed ("" on success); it is the
	// failover cause for the retry that follows it.
	Err string
}

// StageSpan is one named local stage timing inside a QueryTrace (the same
// stages the extract_query_stage_seconds histograms observe).
type StageSpan struct {
	// Name is the stage name (admission, cache, dispatch, eval, snippet).
	Name string
	// D is the stage duration.
	D time.Duration
}

// QueryTrace is one retained query trace: the local stage breakdown plus
// every remote hop made on the query's behalf. Traces deliberately carry no
// query text or keywords — they are safe to expose on a debug endpoint
// without leaking what users searched for; correlate with the slow-query
// log by ID when the query itself is needed.
type QueryTrace struct {
	// ID is the query's trace ID, matching the slow-query record and the
	// ID propagated to shard servers.
	ID TraceID
	// Seq orders retained traces by admission to the ring (higher = newer).
	Seq uint64
	// Time is when the trace was recorded (query end).
	Time time.Time
	// Total is the end-to-end serve duration.
	Total time.Duration
	// Stages is the local per-stage breakdown, in execution order.
	Stages []StageSpan
	// Cache is the cache outcome: hit, miss or coalesced.
	Cache string
	// Results is the number of results returned.
	Results int
	// Err classifies the query error ("" on success).
	Err string
	// Kept says why the ring retained this trace: "sampled" or "slow".
	Kept string
	// Hops lists the remote call attempts made for this query, in order.
	// Empty for local-only backends and cache hits.
	Hops []HopSpan
}

// SpanSink collects what one query in flight reports from below the serving
// layer. The serving layer owns one per query and installs it in the request
// context; the router appends a span per remote call attempt, the sharded
// merge notes a whole-document round, and a local backend notes the time its
// snippet fan-out took. The zero value is ready to use. Safe for concurrent
// Add (parallel group calls).
type SpanSink struct {
	// TraceID is the query's trace ID, read by the router to stamp
	// outgoing wire requests. Set once before the sink is shared.
	TraceID TraceID

	mu   sync.Mutex
	hops []HopSpan

	fallback atomic.Bool
	snippets atomic.Int64 // nanoseconds
}

// NoteFallback records that the query's sharded merge took the
// whole-document round (shard.Merge's round three).
func (s *SpanSink) NoteFallback() { s.fallback.Store(true) }

// Fallback reports whether NoteFallback was called.
func (s *SpanSink) Fallback() bool { return s.fallback.Load() }

// NoteSnippets adds d to the time the query spent generating snippets in
// this process.
func (s *SpanSink) NoteSnippets(d time.Duration) { s.snippets.Add(int64(d)) }

// Snippets returns the snippet time noted so far.
func (s *SpanSink) Snippets() time.Duration { return time.Duration(s.snippets.Load()) }

// Add appends one hop span.
func (s *SpanSink) Add(h HopSpan) {
	s.mu.Lock()
	s.hops = append(s.hops, h)
	s.mu.Unlock()
}

// AppendHops appends the collected spans to dst and returns it, reusing
// dst's capacity — the allocation-free path trace-ring fills use.
func (s *SpanSink) AppendHops(dst []HopSpan) []HopSpan {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append(dst, s.hops...)
}

// Hops returns a copy of the spans collected so far (nil if none).
func (s *SpanSink) Hops() []HopSpan {
	s.mu.Lock()
	defer s.mu.Unlock()
	if len(s.hops) == 0 {
		return nil
	}
	out := make([]HopSpan, len(s.hops))
	copy(out, s.hops)
	return out
}

// sinkKey is the context key WithSpanSink stores under.
type sinkKey struct{}

// WithSpanSink returns a context carrying s, so the remote router can
// attach hop spans to the query that caused its calls.
func WithSpanSink(ctx context.Context, s *SpanSink) context.Context {
	return context.WithValue(ctx, sinkKey{}, s)
}

// SpanSinkFrom returns the sink installed by WithSpanSink, or nil when the
// context carries none (background work, tests).
func SpanSinkFrom(ctx context.Context) *SpanSink {
	s, _ := ctx.Value(sinkKey{}).(*SpanSink)
	return s
}

// TraceRing retains a bounded set of recent query traces under two
// policies at once: every sampleEvery-th query (a steady time-ordered
// sample of normal traffic, kept in a ring) and the slowest queries seen
// (kept in a separate fixed-size pool so outliers survive however rare).
// Deciding retention costs a mutex and a few compares; a query that is not
// retained allocates nothing and its fill callback never runs — that is
// the zero-alloc happy path. Retained slots are reused in place, so
// steady-state recording does not grow the heap either.
type TraceRing struct {
	mu          sync.Mutex
	sampleEvery uint64
	seen        uint64
	seq         uint64

	ring     []QueryTrace // sampled traces, circular
	ringNext int
	ringLen  int

	slow       []QueryTrace // slowest traces, unordered
	slowMin    time.Duration
	slowMinIdx int
}

// NewTraceRing builds a trace ring that samples every sampleEvery-th query
// (the first query is always sampled) into a ring of ringSize slots and
// additionally keeps the slowSize slowest queries. sampleEvery <= 0
// disables sampling; ringSize and slowSize <= 0 disable that pool.
func NewTraceRing(sampleEvery, ringSize, slowSize int) *TraceRing {
	r := &TraceRing{}
	if sampleEvery > 0 {
		r.sampleEvery = uint64(sampleEvery)
	}
	if ringSize > 0 {
		r.ring = make([]QueryTrace, ringSize)
	}
	if slowSize > 0 {
		r.slow = make([]QueryTrace, 0, slowSize)
	}
	return r
}

// Record offers one finished query to the ring. Retention is decided
// first, from total alone; only if the query is kept does fill run, with a
// slot whose Stages and Hops slices are reset but keep their capacity —
// fill should append into them rather than assign fresh slices. Record
// sets Seq, Total, and Kept itself after fill returns.
func (r *TraceRing) Record(total time.Duration, fill func(*QueryTrace)) {
	r.mu.Lock()
	defer r.mu.Unlock()
	n := r.seen
	r.seen++

	sampled := r.sampleEvery > 0 && len(r.ring) > 0 && n%r.sampleEvery == 0
	var slowSlot *QueryTrace
	if cap(r.slow) > 0 {
		if len(r.slow) < cap(r.slow) {
			r.slow = r.slow[:len(r.slow)+1]
			slowSlot = &r.slow[len(r.slow)-1]
		} else if total > r.slowMin {
			slowSlot = &r.slow[r.slowMinIdx]
		}
	}
	if !sampled && slowSlot == nil {
		return
	}

	r.seq++
	if sampled {
		slot := &r.ring[r.ringNext]
		r.ringNext = (r.ringNext + 1) % len(r.ring)
		if r.ringLen < len(r.ring) {
			r.ringLen++
		}
		fillSlot(slot, fill, total, r.seq, "sampled")
	}
	if slowSlot != nil {
		fillSlot(slowSlot, fill, total, r.seq, "slow")
		// Recompute the eviction candidate; O(slowSize) but only on the
		// (rare) admission of a new slowest query, never per record.
		r.slowMinIdx = 0
		r.slowMin = r.slow[0].Total
		for i := 1; i < len(r.slow); i++ {
			if r.slow[i].Total < r.slowMin {
				r.slowMin, r.slowMinIdx = r.slow[i].Total, i
			}
		}
	}
}

// fillSlot resets slot in place (keeping Stages/Hops capacity), runs fill,
// then stamps the ring-owned fields.
func fillSlot(slot *QueryTrace, fill func(*QueryTrace), total time.Duration, seq uint64, kept string) {
	stages, hops := slot.Stages[:0], slot.Hops[:0]
	*slot = QueryTrace{Stages: stages, Hops: hops}
	fill(slot)
	slot.Seq, slot.Total, slot.Kept = seq, total, kept
}

// Snapshot deep-copies the retained traces, newest first. A query retained
// by both policies appears once, labeled "sampled". The copies share no
// memory with the ring, so callers may hold them indefinitely.
func (r *TraceRing) Snapshot() []QueryTrace {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]QueryTrace, 0, r.ringLen+len(r.slow))
	seen := make(map[uint64]bool, r.ringLen)
	for i := 0; i < r.ringLen; i++ {
		qt := copyTrace(&r.ring[i])
		seen[qt.Seq] = true
		out = append(out, qt)
	}
	for i := range r.slow {
		if seen[r.slow[i].Seq] {
			continue
		}
		out = append(out, copyTrace(&r.slow[i]))
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Seq > out[j].Seq })
	return out
}

// copyTrace clones qt so the copy shares no slices with the ring slot.
func copyTrace(qt *QueryTrace) QueryTrace {
	out := *qt
	out.Stages = append([]StageSpan(nil), qt.Stages...)
	out.Hops = append([]HopSpan(nil), qt.Hops...)
	return out
}
