package remote

import (
	"time"

	"extract/internal/telemetry"
)

// serverCallKinds are the request kinds a shard server counts; one counter
// per kind × outcome is pre-registered so the /metrics exposition is
// structurally stable from the first scrape.
var serverCallKinds = []string{"eval", "full", "stats", "ping"}

// serverOutcomes label whether a request produced a response or a
// classified error frame.
var serverOutcomes = []string{"ok", "error"}

// serverStageNames are the server-side stages a shard server times per
// request (the same breakdown responses echo to the router).
var serverStageNames = []string{"decode", "eval", "encode"}

// serverMetrics is the shard server's own telemetry: request counts by
// kind and outcome, and per-stage latency histograms. A nil *serverMetrics
// is valid and records nothing, so servers without WithServerTelemetry pay
// only a nil check per request.
type serverMetrics struct {
	requests map[[2]string]*telemetry.Counter
	stages   map[string]*telemetry.Histogram
}

func newServerMetrics(reg *telemetry.Registry) *serverMetrics {
	m := &serverMetrics{
		requests: make(map[[2]string]*telemetry.Counter),
		stages:   make(map[string]*telemetry.Histogram),
	}
	for _, kind := range serverCallKinds {
		for _, outcome := range serverOutcomes {
			m.requests[[2]string{kind, outcome}] = reg.Counter(
				"extract_shard_server_requests_total",
				"Wire requests handled by this shard server, by request kind and outcome.",
				telemetry.L("kind", kind), telemetry.L("outcome", outcome))
		}
	}
	for _, stage := range serverStageNames {
		m.stages[stage] = reg.Histogram(
			"extract_shard_server_stage_seconds",
			"Server-side stage latency of handled requests (decode, eval, encode).",
			telemetry.L("stage", stage))
	}
	return m
}

// observe records one handled request: its kind/outcome count and every
// stage that actually ran.
func (m *serverMetrics) observe(kind string, ok bool, st serverStages) {
	if m == nil {
		return
	}
	outcome := "ok"
	if !ok {
		outcome = "error"
	}
	if c := m.requests[[2]string{kind, outcome}]; c != nil {
		c.Inc()
	}
	for _, s := range [...]struct {
		name string
		ns   uint64
	}{
		{"decode", st.decodeNs},
		{"eval", st.evalNs},
		{"encode", st.encodeNs},
	} {
		if s.ns > 0 {
			m.stages[s.name].Observe(time.Duration(s.ns))
		}
	}
}

// nanosSince returns the elapsed nanoseconds since start as the wire's
// unsigned stage representation, clamping the (never expected) negative
// case to 1 so "ran but measured zero" stays distinguishable from "did
// not run" on coarse clocks.
func nanosSince(start time.Time) uint64 {
	d := time.Since(start)
	if d <= 0 {
		return 1
	}
	return uint64(d)
}
