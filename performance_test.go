package extract_test

import (
	"encoding/json"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// benchNameRe matches an inline-cited metric or workload name: lowercase
// with at least one underscore, optionally under a dotted layer
// (`throughput_rps`, `cold_local`, `core.snippet_us`). Metric names of the
// live registry share the shape but carry the extract_ prefix and are
// already diffed against it by TestObservabilityDocMatchesRegistry, so they
// are excluded here.
var benchNameRe = regexp.MustCompile(`^([a-z]+\.)?[a-z][a-z0-9]*(_[a-z0-9]+)+$`)

// gateNameRe matches a ratio gate's name, cited or declared.
var gateNameRe = regexp.MustCompile(`^BenchmarkGate\w+$`)

// gateDeclRe finds the ratio gates declared in a test file.
var gateDeclRe = regexp.MustCompile(`(?m)^func (BenchmarkGate\w+)\(b \*testing\.B\)`)

// inlineCodeRe matches inline code spans on one line; fenced blocks are
// stripped before it runs.
var inlineCodeRe = regexp.MustCompile("`([^`\n]+)`")

// TestPerformanceDocCitesRealBenchFields keeps PERFORMANCE.md honest
// against the instruments that exist: every metric or workload name it
// cites in inline code must be declared in BENCHMARK.json, and every ratio
// gate it cites must be a BenchmarkGate function of this package. In the
// other direction, every end-to-end metric, every workload and every gate
// must be documented. A renamed metric or a gate added without prose fails
// here, exactly like OBSERVABILITY.md and the metrics registry.
func TestPerformanceDocCitesRealBenchFields(t *testing.T) {
	docBytes, err := os.ReadFile("PERFORMANCE.md")
	if err != nil {
		t.Fatal(err)
	}
	specBytes, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type named []struct{ Name string }
	var spec struct {
		Workloads named `json:"workloads"`
		EndToEnd  named `json:"end_to_end"`
		PerLayer  named `json:"per_layer"`
	}
	if err := json.Unmarshal(specBytes, &spec); err != nil {
		t.Fatal(err)
	}
	names := map[string]bool{}
	var required []string // documented in the other direction
	for _, set := range []named{spec.Workloads, spec.EndToEnd, spec.PerLayer} {
		for _, e := range set {
			names[e.Name] = true
		}
	}
	for _, set := range []named{spec.Workloads, spec.EndToEnd} {
		for _, e := range set {
			required = append(required, e.Name)
		}
	}
	if len(names) < 10 {
		t.Fatalf("implausibly few names in BENCHMARK.json: %d", len(names))
	}

	gates := map[string]bool{}
	files, err := filepath.Glob("*_test.go")
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range files {
		src, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range gateDeclRe.FindAllStringSubmatch(string(src), -1) {
			gates[m[1]] = true
			required = append(required, m[1])
		}
	}
	if len(gates) == 0 {
		t.Fatal("no BenchmarkGate function found; the declaration regex may have rotted")
	}

	// Strip fenced code blocks: shell commands are not citations.
	var prose []string
	fenced := false
	for _, line := range strings.Split(string(docBytes), "\n") {
		if strings.HasPrefix(strings.TrimSpace(line), "```") {
			fenced = !fenced
			continue
		}
		if !fenced {
			prose = append(prose, line)
		}
	}
	doc := strings.Join(prose, "\n")

	cited := map[string]bool{}
	for _, m := range inlineCodeRe.FindAllStringSubmatch(doc, -1) {
		tok := m[1]
		switch {
		case gateNameRe.MatchString(tok):
			if !gates[tok] {
				t.Errorf("PERFORMANCE.md cites %q, which is not a BenchmarkGate function of this package", tok)
			}
		case benchNameRe.MatchString(tok) && !strings.HasPrefix(tok, "extract_"):
			if !names[tok] {
				t.Errorf("PERFORMANCE.md cites %q, which BENCHMARK.json does not declare", tok)
			}
		default:
			continue
		}
		cited[tok] = true
	}
	if len(cited) < 5 {
		t.Errorf("PERFORMANCE.md cites only %d benchmark names; the extraction regex may have rotted", len(cited))
	}
	for _, name := range required {
		if !cited[name] {
			t.Errorf("%q is an end-to-end metric, a workload or a gate, but PERFORMANCE.md never cites it", name)
		}
	}
}
