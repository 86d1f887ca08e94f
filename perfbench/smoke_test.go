package main

import (
	"bytes"
	"encoding/json"
	"os"
	"strings"
	"testing"
)

// benchmarkSpec is the part of BENCHMARK.json the smoke test checks the
// printed metrics against.
type benchmarkSpec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

// TestSmoke runs every workload at a small scale, untraced and traced, and
// checks that it completes, that its outputs pass the oracle, that only
// the read-your-writes probes fail, and that it prints exactly the metrics
// BENCHMARK.json declares. BENCHMARK.json may list fewer workloads than
// the benchmark has, but none it lacks.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec benchmarkSpec
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	for _, w := range spec.Workloads {
		if findWorkload(w.Name) == nil {
			t.Errorf("BENCHMARK.json lists workload %s, the benchmark has none of that name", w.Name)
		}
	}
	for _, w := range workloads {
		for _, trace := range []string{"0", "1"} {
			t.Run(w.name+"/trace"+trace, func(t *testing.T) {
				var out, errOut bytes.Buffer
				args := []string{"--workload", w.name, "--seed", "7", "--seconds", "0.3", "--trace", trace,
					"--scale", "0.02", "--build-dir", t.TempDir()}
				if code := run(args, &out, &errOut); code != 0 {
					t.Fatalf("exit %d: %s", code, errOut.String())
				}
				lines := strings.Split(strings.TrimSpace(out.String()), "\n")
				if len(lines) < 2 {
					t.Fatalf("output: %q", out.String())
				}
				var rep report
				if err := json.Unmarshal([]byte(lines[len(lines)-2]), &rep); err != nil {
					t.Fatal(err)
				}
				var res result
				if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
					t.Fatal(err)
				}
				if !res.Correct || res.Attempted == 0 {
					t.Fatalf("correct=%t attempted=%d: %s", res.Correct, res.Attempted, errOut.String())
				}
				var failed int64
				for kind, c := range rep.Ops {
					failed += c.Failed
					if kind != probeKind && c.Failed != 0 {
						t.Errorf("%d %s operations failed: %v", c.Failed, kind, rep.Errors)
					}
				}
				if failed != res.Failed {
					t.Errorf("failed per kind sums to %d, result says %d", failed, res.Failed)
				}
				want := map[string]string{}
				if trace == "0" {
					for _, m := range spec.EndToEnd {
						want[m.Name] = m.Unit
					}
				} else {
					for _, m := range spec.PerLayer {
						want[m.Name] = m.Unit
					}
				}
				for name, unit := range want {
					got, ok := res.Metrics[name]
					if !ok {
						t.Errorf("metric %s missing", name)
					} else if got.Unit != unit {
						t.Errorf("metric %s in %s, BENCHMARK.json says %s", name, got.Unit, unit)
					}
				}
				for name := range res.Metrics {
					if _, ok := want[name]; !ok {
						t.Errorf("metric %s is not in BENCHMARK.json", name)
					}
				}
			})
		}
	}
}
