// Command benchmark is the repository's performance benchmark: it drives
// eXtract in-process through the public facade with one closed-loop client
// and reports every timing in reference milliseconds (see yardstick.go).
// README.md in this directory describes the workloads and metrics.
//
//	go run . -workload cold_local -seed 1      one run of one workload
//	go run .                                   every workload, one run each
//	go run . -repeat 5                         the repeatability self-check
package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"

	"extract"
)

// Run lengths. One run is one process; the driver gives each 180 s and all
// of them under an hour, which is what caps the measured phase.
const (
	defaultSeconds = 15
	setupRepeats   = 6   // further set-ups after the run's own; setup_s is the median of all
	checkedOps     = 100 // leading ops checked against the reference corpus, and replayed layer by layer when tracing
)

func main() {
	workload := flag.String("workload", "", "workload to run (default: all, one fresh process each)")
	seed := flag.Int64("seed", 1, "seed of the op order")
	seconds := flag.Float64("seconds", defaultSeconds, "length of the measured phase")
	trace := flag.Int("trace", 1, "1: add the traced pass and print the per-layer metrics; 0: end-to-end metrics only")
	repeat := flag.Int("repeat", 0, "run two interleaved sets of N runs per workload and report how well they agree")
	flag.Parse()

	root, err := findRoot()
	if err != nil {
		fatal(err)
	}
	out := filepath.Join(root, "benchmark", "out")
	switch {
	case *repeat > 0:
		err = runRepeat(out, *workload, *seed, *seconds, *repeat)
	case *workload == "":
		err = runAll(out, *seed, *seconds, *trace)
	default:
		w, ok := findWorkload(*workload)
		if !ok {
			fatal(fmt.Errorf("unknown workload %q", *workload))
		}
		err = runOne(root, out, w, *seed, *seconds, *trace == 1)
	}
	if err != nil {
		fatal(err)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "benchmark:", err)
	os.Exit(1)
}

// findRoot walks up from the working directory to the checkout root, the
// directory holding BENCHMARK.json.
func findRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "BENCHMARK.json")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", fmt.Errorf("no BENCHMARK.json above the working directory")
		}
		dir = parent
	}
}

// result is the machine-readable outcome of one run, written to
// out/<workload>.result.json; the last line of standard output carries the
// part of it the driver reads.
type result struct {
	Workload  string         `json:"workload"`
	Seed      int64          `json:"seed"`
	Seconds   float64        `json:"seconds"`
	Correct   bool           `json:"correct"`
	Attempted int            `json:"attempted"`
	Failed    int            `json:"failed"`
	Samples   map[string]int `json:"samples"`
	EndToEnd  metricSet      `json:"end_to_end"`
	PerLayer  metricSet      `json:"per_layer"`
	// Digest fingerprints the response bytes of the leading checked ops;
	// cold_routed's must equal cold_local's for the same seed.
	Digest string   `json:"digest"`
	Notes  []string `json:"notes,omitempty"`
	Claim  *string  `json:"claim"` // always null: the benchmark measures, it claims nothing
}

func runOne(root, out string, w workloadSpec, seed int64, seconds float64, traced bool) error {
	y := newYardstick()
	for i := 0; i < 25; i++ {
		y.run() // fault the tables in before anything is bracketed by it
	}
	fx, err := buildFixture(filepath.Join(out, w.name))
	if err != nil {
		return err
	}
	defer os.RemoveAll(fx.dir)
	res := &result{Workload: w.name, Seed: seed, Seconds: seconds, Samples: map[string]int{"corpus_nodes": fx.nodes},
		EndToEnd: metricSet{}, PerLayer: metricSet{}}

	var sys *system
	first, _ := bracket(y, func() { sys, err = w.open(fx, fx.pool[0]) })
	setup := []float64{first}
	if err != nil {
		return fmt.Errorf("set-up: %w", err)
	}

	// The ops the checks replay are the head of the seed's first pass
	// (the warm-up's), which cold_local and cold_routed share.
	head := w.newStream(seed).nextPass()[:checkedOps]

	m := w.measure(sys, fx, w.newStream(seed), y, seconds)
	rss, err := peakRSSMB()
	if err != nil {
		return err
	}
	res.Attempted, res.Failed = m.attempted, m.failed
	res.Samples["queries"], res.Samples["passes"] = m.summarise(res.EndToEnd, res.PerLayer)
	res.Samples["yardstick_calls"] = len(m.norm.all())
	res.EndToEnd.set(endToEnd, "rss_peak_mb", rss)

	// Correctness: responses must equal those of an unsharded, uncached
	// corpus loaded from the file that is live now.
	ref, err := extract.LoadFile(m.liveFile, extract.WithQueryCache(0))
	if err != nil {
		return fmt.Errorf("reference corpus: %w", err)
	}
	digest := sha256.New()
	verify := func(o op, got string) {
		want, ok := answer(ref, fx, o)
		res.Attempted++
		if !ok || got != want {
			res.Failed++
		}
		digest.Write([]byte(got))
	}
	if traced {
		l := &ledger{w: w, fx: fx, y: y, rec: newRecorder(), res: res}
		err := l.traceOps(sys, m.liveFile, head, verify)
		sys.close()
		ref.Close()
		if err != nil {
			return err
		}
		releaseMemory()
		if err := l.traceSetUp(m.liveFile); err != nil {
			return err
		}
		releaseMemory()
		edgeProbe(root, fx, m.liveFile, res)
		res.Samples["spans"] = len(l.rec.spans)
		if err := l.rec.write(filepath.Join(out, w.name+".trace.json"), w.name, seed); err != nil {
			return err
		}
	} else {
		for _, o := range head {
			got, _ := answer(sys.c, fx, o)
			verify(o, got)
		}
		sys.close()
		ref.Close()
		for i := 0; i < setupRepeats; i++ {
			releaseMemory()
			var again *system
			refMS, _ := bracket(y, func() { again, err = w.open(fx, fx.pool[0]) })
			if err != nil {
				return fmt.Errorf("set-up repeat: %w", err)
			}
			again.close()
			setup = append(setup, refMS)
		}
	}
	res.Samples["checked_ops"] = len(head)
	res.Samples["setups"] = len(setup)
	res.EndToEnd.set(endToEnd, "setup_s", median(setup)/1000)
	res.Digest = hex.EncodeToString(digest.Sum(nil))
	res.Correct = res.Failed == 0

	return report(out, res, traced)
}

// report prints every metric by name with its unit, writes the result file,
// and ends standard output with the line the driver parses.
func report(out string, res *result, traced bool) error {
	fmt.Printf("workload %s  seed %d  measured %.0f s\n", res.Workload, res.Seed, res.Seconds)
	fmt.Printf("ops attempted %d  failed %d  correct %t  digest %.16s\n", res.Attempted, res.Failed, res.Correct, res.Digest)
	fmt.Printf("samples:")
	for _, k := range sortedKeys(res.Samples) {
		fmt.Printf(" %s=%d", k, res.Samples[k])
	}
	fmt.Println()
	fmt.Println("end-to-end (timings in reference units):")
	for _, d := range endToEnd {
		fmt.Printf("  %-34s %14.4f %s\n", d.name, res.EndToEnd[d.name].Value, d.unit)
	}
	fmt.Println("per-layer:")
	for _, d := range perLayer {
		if v, ok := res.PerLayer[d.name]; ok {
			fmt.Printf("  %-34s %14.4f %s\n", d.name, v.Value, d.unit)
		}
	}
	for _, n := range res.Notes {
		fmt.Println("note:", n)
	}
	fmt.Println("claim: null")

	data, err := json.MarshalIndent(res, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(filepath.Join(out, res.Workload+".result.json"), data, 0o644); err != nil {
		return err
	}
	line := struct {
		Correct   bool      `json:"correct"`
		Attempted int       `json:"attempted"`
		Failed    int       `json:"failed"`
		Metrics   metricSet `json:"metrics"`
	}{res.Correct, res.Attempted, res.Failed, res.EndToEnd}
	if traced {
		line.Metrics = res.PerLayer
	}
	last, err := json.Marshal(line)
	if err != nil {
		return err
	}
	fmt.Println(string(last))
	if !res.Correct {
		return fmt.Errorf("%s: %d of %d ops failed", res.Workload, res.Failed, res.Attempted)
	}
	return nil
}

func sortedKeys(m map[string]int) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
