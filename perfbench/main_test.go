package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"multihonest/perfbench/jobs"
)

// inputs renders everything a workload sends for a seed, byte for byte.
func inputs(t *testing.T, workload string, seed int64) []byte {
	t.Helper()
	var b bytes.Buffer
	if workload == "offline" {
		j, err := json.Marshal(jobs.Cycle(seed))
		if err != nil {
			t.Fatal(err)
		}
		return j
	}
	in := genServe(workload, seed, 5000)
	fmt.Fprintf(&b, "cache %d\n", in.Cache)
	for _, r := range in.Distinct {
		b.Write(r.wire())
	}
	fmt.Fprintln(&b, in.Warm, in.Ops)
	return b.Bytes()
}

func TestGeneratorDeterminism(t *testing.T) {
	for _, w := range workloads {
		a, b := inputs(t, w, 7), inputs(t, w, 7)
		if !bytes.Equal(a, b) {
			t.Errorf("%s: seed 7 gave two different input lists", w)
		}
		if bytes.Equal(a, inputs(t, w, 8)) {
			t.Errorf("%s: seeds 7 and 8 gave the same input list", w)
		}
	}
}

// benchmarkFile is the part of BENCHMARK.json the output must match.
type benchmarkFile struct {
	EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer []struct{ Name, Unit string } `json:"per_layer"`
}

// TestOutput runs every workload at its smallest size through the built
// binaries, untraced and traced, and checks the last output line is the
// JSON object the benchmark contract asks for: every metric of
// BENCHMARK.json printed exactly once, with its unit, and nothing else.
func TestOutput(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs the programs under test")
	}
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec benchmarkFile
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	bin, work := t.TempDir(), t.TempDir()
	for name, pkg := range map[string]string{"perfbench": ".", "worker": "./worker", "serve": "multihonest/cmd/serve"} {
		if out, err := exec.Command("go", "build", "-o", filepath.Join(bin, name), pkg).CombinedOutput(); err != nil {
			t.Fatalf("building %s: %v\n%s", pkg, err, out)
		}
	}
	// The smallest op counts at which every segment of the measured phase
	// still spans several ticks of the CPU clock behind cpu_ms_per_op.
	smallest := map[string]int{"serve-warm": 5000, "serve-churn": 200, "offline": 50}
	for _, w := range workloads {
		for trace, want := range [][]struct{ Name, Unit string }{spec.EndToEnd, spec.PerLayer} {
			t.Run(fmt.Sprintf("%s/trace%d", w, trace), func(t *testing.T) {
				cmd := exec.Command(filepath.Join(bin, "perfbench"), "-bin", bin, "-work", work, "-ops", fmt.Sprint(smallest[w]),
					"--workload", w, "--seed", "3", "--seconds", "1", "--trace", fmt.Sprint(trace))
				var stderr bytes.Buffer
				cmd.Stderr = &stderr
				out, err := cmd.Output()
				if err != nil {
					t.Fatalf("%v\n%s", err, stderr.Bytes())
				}
				lines := strings.Split(strings.TrimSpace(string(out)), "\n")
				last := lines[len(lines)-1]
				var top map[string]json.RawMessage
				if err := json.Unmarshal([]byte(last), &top); err != nil {
					t.Fatalf("last line is not JSON: %v\n%s", err, last)
				}
				if len(top) != 4 || top["correct"] == nil || top["attempted"] == nil || top["failed"] == nil || top["metrics"] == nil {
					t.Fatalf("want exactly correct, attempted, failed and metrics: %s", last)
				}
				var res result
				if err := json.Unmarshal([]byte(last), &res); err != nil {
					t.Fatal(err)
				}
				if !res.Correct || res.Attempted < 1 || res.Failed != 0 {
					t.Errorf("correct=%v attempted=%d failed=%d", res.Correct, res.Attempted, res.Failed)
				}
				if len(res.Metrics) != len(want) {
					t.Errorf("%d metrics printed, BENCHMARK.json names %d", len(res.Metrics), len(want))
				}
				for _, m := range want {
					if n := strings.Count(last, `"`+m.Name+`":`); n != 1 {
						t.Errorf("%s printed %d times", m.Name, n)
					}
					got, ok := res.Metrics[m.Name]
					switch {
					case !ok:
					case got.Unit != m.Unit:
						t.Errorf("%s: unit %q, BENCHMARK.json says %q", m.Name, got.Unit, m.Unit)
					case math.IsNaN(got.Value) || math.IsInf(got.Value, 0):
						t.Errorf("%s = %v", m.Name, got.Value)
					case trace == 0 && got.Value <= 0:
						t.Errorf("end-to-end metric %s = %v, want > 0", m.Name, got.Value)
					}
				}
			})
		}
	}
}
