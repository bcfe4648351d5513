package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
)

// runChild runs one workload in a fresh process and returns its result
// file's contents. The child's report goes to w (nil drops it).
func runChild(out, workload string, seed int64, seconds float64, trace int, w *os.File) (*result, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(exe, "-workload", workload, "-seed", strconv.FormatInt(seed, 10),
		"-seconds", strconv.FormatFloat(seconds, 'f', -1, 64), "-trace", strconv.Itoa(trace))
	cmd.Stderr = os.Stderr
	if w != nil {
		cmd.Stdout = w
	}
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("%s seed %d: %w", workload, seed, err)
	}
	data, err := os.ReadFile(filepath.Join(out, workload+".result.json"))
	if err != nil {
		return nil, err
	}
	res := &result{}
	return res, json.Unmarshal(data, res)
}

// runAll runs every workload once, each in its own process, then checks
// that the routed tier answered byte for byte what the local corpus did.
func runAll(out string, seed int64, seconds float64, trace int) error {
	digests := map[string]string{}
	for _, w := range workloads {
		res, err := runChild(out, w.name, seed, seconds, trace, os.Stdout)
		if err != nil {
			return err
		}
		digests[w.name] = res.Digest
		fmt.Println()
	}
	if digests["cold_routed"] != digests["cold_local"] {
		return fmt.Errorf("routed != local: cold_routed digest %.16s, cold_local %.16s", digests["cold_routed"], digests["cold_local"])
	}
	fmt.Printf("routed == local: cold_routed and cold_local answered the same bytes (digest %.16s)\n", digests["cold_local"])
	return nil
}

// runRepeat is the repeatability self-check: two interleaved sets of n runs
// per workload, run i of either set with seed+i, judged the way the driver
// judges the benchmark — each set's spread (IQR ÷ median, setup_s exempt)
// and the gap between the set medians must stay within the metric's bound.
// The report is markdown; README.md says how to read it.
func runRepeat(out, only string, seed int64, seconds float64, n int) error {
	var hostRows []metricDef
	for _, d := range perLayer {
		if d.name == "host.raw_throughput_rps" || d.name == "host.raw_latency_p50_ms" {
			hostRows = append(hostRows, d)
		}
	}
	fmt.Printf("# Repeatability\n\nTwo interleaved sets of %d runs per workload (`-repeat %d -seed %d -seconds %g`), run i of either set with seed %d+i.\n",
		n, n, seed, seconds, seed)
	fmt.Printf("Spread is IQR ÷ median (quartiles as Python's `statistics.quantiles(n=4)`); gap is how much worse set B's median is than set A's.\n")
	fmt.Printf("PASS needs both spreads (`setup_s` exempt) and the gap within the bound. The `host.*` rows are the same runs un-normalised, for comparison; they have no bound.\n\n")
	failed := 0
	for _, w := range workloads {
		if only != "" && only != w.name {
			continue
		}
		sets := [2]map[string][]float64{{}, {}}
		for i := 0; i < n; i++ {
			for s := range sets {
				res, err := runChild(out, w.name, seed+int64(i), seconds, 0, nil)
				if err != nil {
					return err
				}
				for name, v := range res.EndToEnd {
					sets[s][name] = append(sets[s][name], v.Value)
				}
				for _, d := range hostRows {
					sets[s][d.name] = append(sets[s][d.name], res.PerLayer[d.name].Value)
				}
			}
		}
		fmt.Printf("## %s\n\n| metric | unit | A median [q1, q3] | B median [q1, q3] | A spread | B spread | gap | bound | verdict |\n|---|---|---|---|---|---|---|---|---|\n", w.name)
		for _, d := range append(append([]metricDef(nil), endToEnd...), hostRows...) {
			a1, a2, a3 := quartiles(sets[0][d.name])
			b1, b2, b3 := quartiles(sets[1][d.name])
			spreadA, spreadB := (a3-a1)/a2, (b3-b1)/b2
			gap := (b2 - a2) / a2
			if d.better == "higher" {
				gap = -gap
			}
			bound, verdict := "–", "–"
			if d.bound > 0 {
				bound, verdict = fmt.Sprintf("%.2f", d.bound), "PASS"
				spread := math.Max(spreadA, spreadB)
				if d.name == "setup_s" {
					spread = 0
				}
				if spread > d.bound || gap > d.bound {
					verdict = "FAIL"
					failed++
				}
			}
			fmt.Printf("| `%s` | %s | %.4g [%.4g, %.4g] | %.4g [%.4g, %.4g] | %.3f | %.3f | %+.3f | %s | %s |\n",
				d.name, d.unit, a2, a1, a3, b2, b1, b3, spreadA, spreadB, gap, bound, verdict)
		}
		fmt.Println()
	}
	if failed > 0 {
		return fmt.Errorf("%d metric × workload pairs outside their bound", failed)
	}
	fmt.Println("All metric × workload pairs within their bounds.")
	return nil
}
