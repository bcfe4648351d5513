package telemetry

import (
	"context"
	"testing"
	"time"
)

func TestNextTraceIDUniqueNonZero(t *testing.T) {
	seen := make(map[TraceID]bool)
	for i := 0; i < 10000; i++ {
		id := NextTraceID()
		if id == 0 {
			t.Fatal("zero trace ID")
		}
		if seen[id] {
			t.Fatalf("duplicate trace ID %x after %d draws", id, i)
		}
		seen[id] = true
	}
}

func TestTraceRingSampling(t *testing.T) {
	r := NewTraceRing(4, 8, 0)
	for i := 0; i < 20; i++ {
		id := TraceID(i + 1)
		r.Record(time.Millisecond, func(qt *QueryTrace) { qt.ID = id })
	}
	snap := r.Snapshot()
	// Queries 0,4,8,12,16 are sampled (IDs 1,5,9,13,17), newest first.
	want := []TraceID{17, 13, 9, 5, 1}
	if len(snap) != len(want) {
		t.Fatalf("got %d traces, want %d: %+v", len(snap), len(want), snap)
	}
	for i, w := range want {
		if snap[i].ID != w {
			t.Errorf("trace[%d].ID = %d, want %d", i, snap[i].ID, w)
		}
		if snap[i].Kept != "sampled" {
			t.Errorf("trace[%d].Kept = %q, want sampled", i, snap[i].Kept)
		}
	}
	for i := 1; i < len(snap); i++ {
		if snap[i].Seq >= snap[i-1].Seq {
			t.Errorf("snapshot not newest-first at %d", i)
		}
	}
}

func TestTraceRingKeepsSlowest(t *testing.T) {
	r := NewTraceRing(0, 0, 2)
	durs := []time.Duration{5, 50, 10, 3, 40, 7}
	for i, d := range durs {
		id := TraceID(i + 1)
		r.Record(d*time.Millisecond, func(qt *QueryTrace) { qt.ID = id })
	}
	snap := r.Snapshot()
	if len(snap) != 2 {
		t.Fatalf("got %d traces, want 2: %+v", len(snap), snap)
	}
	got := map[TraceID]bool{snap[0].ID: true, snap[1].ID: true}
	// The two slowest were queries 2 (50ms) and 5 (40ms).
	if !got[2] || !got[5] {
		t.Fatalf("slow pool kept %v, want IDs 2 and 5", got)
	}
	for _, qt := range snap {
		if qt.Kept != "slow" {
			t.Errorf("trace %d Kept = %q, want slow", qt.ID, qt.Kept)
		}
	}
}

func TestTraceRingDedupesAcrossPolicies(t *testing.T) {
	// Every query sampled and the slow pool large enough to keep them all:
	// each query must still appear exactly once in the snapshot.
	r := NewTraceRing(1, 8, 8)
	for i := 0; i < 4; i++ {
		r.Record(time.Duration(i+1)*time.Millisecond, func(qt *QueryTrace) {})
	}
	snap := r.Snapshot()
	if len(snap) != 4 {
		t.Fatalf("got %d traces, want 4 (dedup across sampled+slow)", len(snap))
	}
}

func TestTraceRingUnretainedAllocatesNothing(t *testing.T) {
	r := NewTraceRing(1_000_000, 4, 1)
	// Prime: query 0 is sampled and becomes the slowest.
	r.Record(time.Hour, func(qt *QueryTrace) {})
	allocs := testing.AllocsPerRun(1000, func() {
		r.Record(time.Microsecond, func(qt *QueryTrace) {
			t.Error("fill ran for an unretained query")
		})
	})
	if allocs != 0 {
		t.Errorf("unretained Record allocates %.1f objects per call, want 0", allocs)
	}
}

func TestTraceRingReusesSlotCapacity(t *testing.T) {
	r := NewTraceRing(1, 1, 0)
	r.Record(time.Millisecond, func(qt *QueryTrace) {
		qt.Hops = append(qt.Hops, HopSpan{Replica: "a"}, HopSpan{Replica: "b"})
		qt.Stages = append(qt.Stages, StageSpan{Name: "eval", Duration: time.Millisecond})
	})
	allocs := testing.AllocsPerRun(100, func() {
		r.Record(time.Millisecond, func(qt *QueryTrace) {
			qt.Hops = append(qt.Hops, HopSpan{Replica: "a"})
			qt.Stages = append(qt.Stages, StageSpan{Name: "eval"})
		})
	})
	if allocs != 0 {
		t.Errorf("steady-state retained Record allocates %.1f objects per call, want 0", allocs)
	}
	snap := r.Snapshot()
	if len(snap) != 1 || len(snap[0].Hops) != 1 || snap[0].Hops[0].Replica != "a" {
		t.Fatalf("slot reuse corrupted trace: %+v", snap)
	}
}

func TestTraceRingSnapshotIsDeepCopy(t *testing.T) {
	r := NewTraceRing(1, 2, 0)
	r.Record(time.Millisecond, func(qt *QueryTrace) {
		qt.Hops = append(qt.Hops, HopSpan{Replica: "a"})
	})
	snap := r.Snapshot()
	// Overwrite the slot; the earlier snapshot must not change.
	r.Record(time.Millisecond, func(qt *QueryTrace) {
		qt.Hops = append(qt.Hops, HopSpan{Replica: "b"})
	})
	r.Record(time.Millisecond, func(qt *QueryTrace) {
		qt.Hops = append(qt.Hops, HopSpan{Replica: "c"})
	})
	if snap[0].Hops[0].Replica != "a" {
		t.Fatalf("snapshot mutated by later records: %+v", snap)
	}
}

func TestSpanSinkContext(t *testing.T) {
	if SpanSinkFrom(context.Background()) != nil {
		t.Fatal("sink from empty context should be nil")
	}
	sink := &SpanSink{TraceID: 42}
	ctx := WithSpanSink(context.Background(), sink)
	got := SpanSinkFrom(ctx)
	if got != sink {
		t.Fatal("sink did not round-trip through context")
	}
	got.Add(HopSpan{Replica: "x", Attempt: 0})
	got.Add(HopSpan{Replica: "y", Attempt: 1, Err: "transport"})
	hops := sink.Hops()
	if len(hops) != 2 || hops[0].Replica != "x" || hops[1].Err != "transport" {
		t.Fatalf("unexpected hops: %+v", hops)
	}
	hops[0].Replica = "mutated"
	if sink.Hops()[0].Replica != "x" {
		t.Fatal("Hops() returned aliased storage")
	}
}
