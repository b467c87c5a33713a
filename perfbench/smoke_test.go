package main

import (
	"bytes"
	"encoding/json"
	"os"
	"strings"
	"testing"
	"time"
)

// benchmarkSpec is the part of BENCHMARK.json the smoke tests check
// against: every run prints exactly the metrics listed there.
type benchmarkSpec struct {
	Workloads []struct{ Name string }
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
}

func loadSpec(t *testing.T) benchmarkSpec {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec benchmarkSpec
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	return spec
}

// TestSmoke runs every workload at tiny size, untraced and traced, and
// checks the result line against BENCHMARK.json.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	spec := loadSpec(t)
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the benchmark has %d", len(spec.Workloads), len(workloads))
	}
	for _, w := range spec.Workloads {
		for _, traced := range []bool{false, true} {
			want := spec.EndToEnd
			if traced {
				want = spec.PerLayer
			}
			name := w.Name
			if traced {
				name += "/traced"
			}
			t.Run(name, func(t *testing.T) {
				fn, ok := workloads[w.Name]
				if !ok {
					t.Fatalf("no workload %q", w.Name)
				}
				var out bytes.Buffer
				cfg := runConfig{seed: 0, duration: time.Second, trace: traced, tiny: true,
					tmp: t.TempDir(), spans: t.TempDir(), out: &out}
				if code := run(w.Name, fn, cfg); code != 0 {
					t.Fatalf("exit %d:\n%s", code, out.String())
				}
				lines := strings.Split(strings.TrimSpace(out.String()), "\n")
				var res report
				if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
					t.Fatal(err)
				}
				if !res.Correct || res.Attempted < 1 || res.Failed != 0 {
					t.Fatalf("result %+v:\n%s", res, out.String())
				}
				if len(res.Metrics) != len(want) {
					t.Errorf("%d metrics, BENCHMARK.json lists %d", len(res.Metrics), len(want))
				}
				for _, m := range want {
					got, ok := res.Metrics[m.Name]
					if !ok || got.Unit != m.Unit {
						t.Errorf("metric %s: got %+v, want unit %s", m.Name, got, m.Unit)
					}
				}
			})
		}
	}
}

// A failed correctness check prints no metrics and exits nonzero.
func TestFailedCheckPrintsNoMetrics(t *testing.T) {
	var out bytes.Buffer
	bad := func(runConfig) (*report, error) {
		r := newReport()
		r.Attempted = 1
		r.set("p50_ms", 1, "ms")
		r.check(false, "digest mismatch")
		return r, nil
	}
	if code := run("bad", bad, runConfig{out: &out}); code == 0 {
		t.Fatal("a failed check exited 0")
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var res report
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatal(err)
	}
	if res.Correct || len(res.Metrics) != 0 {
		t.Fatalf("result %+v", res)
	}
}
