package main

import (
	"bytes"
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"strconv"
	"strings"
	"testing"
)

// TestMain lets the test binary stand in for the benchmark binary: the
// harness re-executes itself for every measurement, and under `go test`
// its own executable is the test binary.
func TestMain(m *testing.M) {
	if len(os.Args) > 1 && os.Args[1] == "-child" {
		os.Exit(run(os.Args[1:], os.Stdout))
	}
	os.Exit(m.Run())
}

// runTiny runs one workload at tiny scale and returns the parsed last line.
func runTiny(t *testing.T, wl string, seed uint64, traced int) result {
	t.Helper()
	var out bytes.Buffer
	args := []string{"--workload", wl, "--seed", strconv.FormatUint(seed, 10), "--seconds", "0",
		"--trace", strconv.Itoa(traced), "-scale", "tiny"}
	code := run(args, &out)
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatalf("%s: last line is not the result: %v\n%s", wl, err, out.String())
	}
	if code != 0 || !res.Correct || res.Failed != 0 || res.Attempted < 1 {
		t.Fatalf("%s --trace %d: exit %d, correct %v, %d of %d failed\n%s", wl, traced, code, res.Correct, res.Failed, res.Attempted, out.String())
	}
	return res
}

// checkMetrics asserts the run printed exactly the catalogue's metrics,
// each with its catalogue unit.
func checkMetrics(t *testing.T, wl string, res result, defs []metricDef) {
	t.Helper()
	if len(res.Metrics) != len(defs) {
		t.Errorf("%s: %d metrics, catalogue has %d", wl, len(res.Metrics), len(defs))
	}
	for _, d := range defs {
		m, ok := res.Metrics[d.Name]
		if !ok {
			t.Errorf("%s: metric %s missing", wl, d.Name)
			continue
		}
		if m.Unit != d.Unit {
			t.Errorf("%s: metric %s unit %q, want %q", wl, d.Name, m.Unit, d.Unit)
		}
		if d.Bound != nil && m.Value <= 0 {
			t.Errorf("%s: end-to-end metric %s = %v, want > 0", wl, d.Name, m.Value)
		}
	}
}

func modelOfResult(res result) [3]float64 {
	return [3]float64{res.Metrics["model_p50_ns"].Value, res.Metrics["model_p99_ns"].Value, res.Metrics["model_p999_ns"].Value}
}

// TestTinyWorkloads runs every workload at tiny scale in both modes: each
// must pass its own checks and print every metric with its unit. The same
// seed must reproduce the simulated latencies exactly; another seed must
// change them.
func TestTinyWorkloads(t *testing.T) {
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			a := runTiny(t, w.name, 7, 0)
			checkMetrics(t, w.name, a, endToEnd)
			b := runTiny(t, w.name, 7, 0)
			if modelOfResult(a) != modelOfResult(b) {
				t.Errorf("seed 7 twice: model %v then %v", modelOfResult(a), modelOfResult(b))
			}
			c := runTiny(t, w.name, 8, 0)
			if modelOfResult(a) == modelOfResult(c) {
				t.Errorf("seeds 7 and 8 gave the same model %v", modelOfResult(a))
			}
			checkMetrics(t, w.name, runTiny(t, w.name, 7, 1), perLayer)
		})
	}
}

// TestManifestMatchesFile keeps BENCHMARK.json what -manifest prints.
func TestManifestMatchesFile(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var onDisk, built any
	if err := json.Unmarshal(raw, &onDisk); err != nil {
		t.Fatal(err)
	}
	b, _ := json.Marshal(buildManifest())
	if err := json.Unmarshal(b, &built); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(onDisk, built) {
		t.Errorf("BENCHMARK.json is stale; regenerate it with: bash perfbench/run.sh -manifest > BENCHMARK.json")
	}
}

// TestFailsWithoutSimulator copies only BENCHMARK.json and this directory
// into an empty tree: the benchmark must exit non-zero without printing a
// result.
func TestFailsWithoutSimulator(t *testing.T) {
	if _, err := exec.LookPath("bash"); err != nil {
		t.Skip("bash not available")
	}
	dir := t.TempDir()
	if err := os.CopyFS(filepath.Join(dir, "perfbench"), os.DirFS(".")); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "BENCHMARK.json"), raw, 0o644); err != nil {
		t.Fatal(err)
	}
	cmd := exec.Command("bash", "perfbench/run.sh", "--workload", "node-herd", "--seed", "1", "--seconds", "1", "--trace", "0")
	cmd.Dir = dir
	out, err := cmd.Output()
	if err == nil {
		t.Fatalf("benchmark succeeded without the simulator:\n%s", out)
	}
	if bytes.Contains(out, []byte(`"correct"`)) {
		t.Errorf("benchmark printed a result without the simulator:\n%s", out)
	}
}
