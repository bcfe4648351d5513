package main

import (
	"encoding/json"
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"os"
	"sort"
	"testing"
)

// hashOps fingerprints an op sequence.
func hashOps(ops []op) uint64 {
	h := fnv.New64a()
	for _, o := range ops {
		fmt.Fprintf(h, "%d;", o.query)
	}
	return h.Sum64()
}

func TestYardstickDeterministic(t *testing.T) {
	a, b := newYardstick(), newYardstick()
	var first uint64
	for i := 0; i < 3; i++ {
		x, y := a.run(), b.run()
		if x != y {
			t.Fatalf("call %d: checksums differ: %d vs %d", i, x, y)
		}
		if i == 0 {
			first = x
		} else if x == first {
			t.Fatalf("call %d repeated the first call's checksum: the kernel is not advancing its state", i)
		}
	}
	if !sort.SliceIsSorted(a.sorted, func(i, j int) bool { return a.sorted[i] < a.sorted[j] }) {
		t.Fatal("yardstick array is not sorted")
	}
}

func TestStreamDeterministic(t *testing.T) {
	for _, w := range workloads {
		a, b, c := w.newStream(7), w.newStream(7), w.newStream(8)
		for pass := 0; pass < 3; pass++ {
			pa, pb, pc := a.nextPass(), b.nextPass(), c.nextPass()
			if hashOps(pa) != hashOps(pb) {
				t.Fatalf("%s pass %d: same seed, different order", w.name, pass)
			}
			if hashOps(pa) == hashOps(pc) {
				t.Fatalf("%s pass %d: different seeds, same order", w.name, pass)
			}
			// Whatever the seed, a pass is the same multiset of ops.
			sort.Slice(pa, func(i, j int) bool { return pa[i].query < pa[j].query })
			sort.Slice(pc, func(i, j int) bool { return pc[i].query < pc[j].query })
			if hashOps(pa) != hashOps(pc) {
				t.Fatalf("%s pass %d: seeds changed the ops themselves, not just their order", w.name, pass)
			}
		}
	}
	local, _ := findWorkload("cold_local")
	routed, _ := findWorkload("cold_routed")
	if hashOps(local.newStream(3).nextPass()) != hashOps(routed.newStream(3).nextPass()) {
		t.Fatal("cold_routed must replay cold_local's exact op sequence")
	}
}

func TestPassOpsZipf(t *testing.T) {
	ops := passOps(800, 2000, 1.2)
	if len(ops) != 2000 {
		t.Fatalf("pass has %d ops, want 2000", len(ops))
	}
	counts := make([]int, 800)
	for _, o := range ops {
		counts[o.query]++
	}
	for q := 1; q < len(counts); q++ {
		if counts[q] > counts[q-1] {
			t.Fatalf("rank %d drawn %d times, more than rank %d (%d)", q, counts[q], q-1, counts[q-1])
		}
	}
	if want := 2000 / 4.29; math.Abs(float64(counts[0])-want) > 0.03*want {
		t.Fatalf("top rank drawn %d times, want about %.0f", counts[0], want)
	}
}

func TestQuantileAgainstSortedReference(t *testing.T) {
	xs := make([]float64, 101)
	for i, p := range rand.New(rand.NewSource(1)).Perm(101) {
		xs[i] = float64(p)
	}
	for _, q := range []float64{0, 0.05, 0.5, 0.95, 0.99, 1} {
		if got := quantile(xs, q); math.Abs(got-100*q) > 1e-9 {
			t.Errorf("quantile(%.2f) = %v, want %v", q, got, 100*q)
		}
	}
	if got := quantile([]float64{1, 2, 3, 10}, 0.5); got != 2.5 {
		t.Errorf("median of an even count = %v, want 2.5", got)
	}
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	q1, q2, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles = %v %v %v, want 2.75 5.5 8.25", q1, q2, q3)
	}
}

// A host slowdown that stretches the work and the yardstick alike must not
// show in the normalised metric.
func TestNormaliserCancelsMultiplicativeSlowdown(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	series := func(slowFrom int) float64 {
		n := &normaliser{}
		const blocks = 60
		raw := make([]float64, blocks)
		for b := 0; b <= blocks; b++ {
			factor := 1.0
			if b >= slowFrom {
				factor = 1.3
			}
			calls := make([]float64, yardstickCalls)
			for i := range calls {
				calls[i] = 4 * factor * (1 + 0.02*r.NormFloat64())
			}
			n.calls = append(n.calls, calls)
			if b < blocks {
				raw[b] = 50 * factor
			}
		}
		ref := make([]float64, blocks)
		for b := range ref {
			ref[b] = n.ref(b, raw[b])
		}
		return median(ref)
	}
	steady, slowed := series(1000), series(20)
	if change := math.Abs(slowed-steady) / steady; change > 0.01 {
		t.Fatalf("a 30%% slowdown of work and yardstick moved the normalised metric by %.2f%% (steady %.3f, slowed %.3f)", 100*change, steady, slowed)
	}
	if math.Abs(steady-50) > 0.5 {
		t.Fatalf("50 ms of work beside a 4 ms yardstick normalised to %.3f reference ms, want 50", steady)
	}
}

func TestBlocking(t *testing.T) {
	if got := blocking([]float64{4, 1, 1}, 2); got != 4 {
		t.Errorf("one slow part: %v, want 4", got)
	}
	if got := blocking([]float64{2, 2, 2, 2}, 2); got != 4 {
		t.Errorf("even parts on two processors: %v, want 4", got)
	}
	if got := blocking(nil, 2); got != 0 {
		t.Errorf("no parts: %v, want 0", got)
	}
}

// BENCHMARK.json repeats the workload and metric tables for the driver.
func TestBenchmarkJSONMatchesTables(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type metric struct {
		Name, Unit, Better string
		Bound              float64
	}
	var cfg struct {
		Workloads  []struct{ Name, Why string }
		EndToEnd   []metric `json:"end_to_end"`
		PerLayer   []metric `json:"per_layer"`
		RunSeconds float64  `json:"run_seconds"`
	}
	if err := json.Unmarshal(data, &cfg); err != nil {
		t.Fatal(err)
	}
	if cfg.RunSeconds != defaultSeconds {
		t.Errorf("run_seconds %v, the program's default is %v", cfg.RunSeconds, defaultSeconds)
	}
	if len(cfg.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in the program", len(cfg.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if cfg.Workloads[i].Name != w.name || cfg.Workloads[i].Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json has %q (%q), the program %q (%q)", i, cfg.Workloads[i].Name, cfg.Workloads[i].Why, w.name, w.why)
		}
	}
	check := func(kind string, got []metric, want []metricDef) {
		if len(got) != len(want) {
			t.Fatalf("%d %s metrics in BENCHMARK.json, %d in the program", len(got), kind, len(want))
		}
		for i, d := range want {
			if g := got[i]; g.Name != d.name || g.Unit != d.unit || g.Better != d.better || g.Bound != d.bound {
				t.Errorf("%s metric %d: BENCHMARK.json has %+v, the program %+v", kind, i, g, d)
			}
		}
	}
	check("end-to-end", cfg.EndToEnd, endToEnd)
	check("per-layer", cfg.PerLayer, perLayer)
}
