package main

import (
	"encoding/json"
	"io"
	"os"
	"sort"
	"strconv"
	"testing"
)

// benchmarkSpec is the part of ../BENCHMARK.json the self-test checks.
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

func readSpec(t *testing.T) benchmarkSpec {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec benchmarkSpec
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	return spec
}

// TestSmoke runs every workload at the tiny size, untraced and traced,
// and checks that each run is correct and prints exactly the metrics
// BENCHMARK.json names, with their units.
func TestSmoke(t *testing.T) {
	spec := readSpec(t)
	var names []string
	for _, w := range spec.Workloads {
		if _, ok := workloads[w.Name]; !ok {
			t.Errorf("BENCHMARK.json names workload %q the benchmark does not run", w.Name)
		}
		names = append(names, w.Name)
	}
	if len(names) != len(workloads) {
		t.Errorf("benchmark runs %d workloads, BENCHMARK.json names %d", len(workloads), len(names))
	}
	wantE2E := map[string]string{}
	for _, m := range spec.EndToEnd {
		wantE2E[m.Name] = m.Unit
	}
	wantLayer := map[string]string{}
	for _, m := range spec.PerLayer {
		wantLayer[m.Name] = m.Unit
	}
	for _, w := range names {
		for trace, want := range []map[string]string{wantE2E, wantLayer} {
			t.Run(w+"/trace"+strconv.Itoa(trace), func(t *testing.T) {
				out, err := run([]string{"--workload", w, "--seed", "3", "--seconds", "0.1",
					"--trace", strconv.Itoa(trace), "--smoke", "--out", t.TempDir()}, io.Discard)
				if err != nil {
					t.Fatal(err)
				}
				if !out.Correct || out.Failed != 0 || out.Attempted < 1 {
					t.Errorf("correct=%v attempted=%d failed=%d", out.Correct, out.Attempted, out.Failed)
				}
				for name, unit := range want {
					got, ok := out.Metrics[name]
					switch {
					case !ok:
						t.Errorf("metric %s not printed", name)
					case got.Unit != unit:
						t.Errorf("metric %s in %s, BENCHMARK.json says %s", name, got.Unit, unit)
					}
				}
				for name := range out.Metrics {
					if _, ok := want[name]; !ok {
						t.Errorf("printed metric %s is not in BENCHMARK.json", name)
					}
				}
			})
		}
	}
}

// TestPerLayerTableMatchesSpec keeps the benchmark's per-layer table
// and BENCHMARK.json in step.
func TestPerLayerTableMatchesSpec(t *testing.T) {
	var got, want []string
	for name, unit := range layerUnits {
		got = append(got, name+" "+unit)
	}
	for _, m := range readSpec(t).PerLayer {
		want = append(want, m.Name+" "+m.Unit)
	}
	sort.Strings(got)
	sort.Strings(want)
	if len(got) != len(want) {
		t.Fatalf("layerUnits has %d metrics, BENCHMARK.json %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Errorf("layerUnits %q vs BENCHMARK.json %q", got[i], want[i])
		}
	}
}

// TestRecordedDigests checks that digests.json holds, for every
// workload, the default seed and at least one held-out seed, and that
// different seeds produce different outputs.
func TestRecordedDigests(t *testing.T) {
	var table map[string]map[string]recordedDigest
	if err := json.Unmarshal(digestsJSON, &table); err != nil {
		t.Fatal(err)
	}
	for name := range workloads {
		seeds := table[name]
		if _, ok := seeds["1"]; !ok {
			t.Errorf("%s: no digest for the default seed 1", name)
		}
		if len(seeds) < 2 {
			t.Errorf("%s: %d recorded seeds, want the default and a held-out one", name, len(seeds))
		}
		seen := map[string]string{}
		for seed, d := range seeds {
			if other, dup := seen[d.SHA256]; dup {
				t.Errorf("%s: seeds %s and %s record the same digest", name, seed, other)
			}
			seen[d.SHA256] = seed
		}
	}
}
