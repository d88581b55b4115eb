package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"testing"
	"time"
)

// benchmarkFile is the part of BENCHMARK.json the smoke test checks.
type benchmarkFile struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []metricSpec `json:"end_to_end"`
	PerLayer []metricSpec `json:"per_layer"`
}

type metricSpec struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

func loadBenchmark(t *testing.T) benchmarkFile {
	t.Helper()
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkFile
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	return b
}

// TestSmoke runs every workload at a tiny size, untraced and traced, and
// checks that each named metric is reported, finite and in its unit, and
// that the traced run's spans nest: every span inside its parent, no
// negative self time, and a modbus-steady exchange at least 90% covered
// by its child spans.
func TestSmoke(t *testing.T) {
	b := loadBenchmark(t)
	for _, w := range workloads {
		w := w
		// Tiny plans must still cross epoch boundaries.
		w.boundaryEvery = min(w.boundaryEvery, 50)
		for _, traced := range []bool{false, true} {
			want := b.EndToEnd
			if traced {
				want = b.PerLayer
			}
			cfg := config{workload: w.name, seed: 7, seconds: 1, trace: traced,
				spans: t.TempDir(), t0: time.Now(), exchanges: 400}
			rep, err := w.run(w, cfg)
			if err != nil {
				t.Fatalf("%s traced=%v: %v", w.name, traced, err)
			}
			if !rep.correct() || rep.attempted != 400 {
				t.Fatalf("%s traced=%v: correct=%v attempted=%d problems=%v",
					w.name, traced, rep.correct(), rep.attempted, rep.problems)
			}
			for _, m := range want {
				got, ok := rep.metrics[m.Name]
				if !ok || math.IsNaN(got.Value) || math.IsInf(got.Value, 0) || got.Unit == "" || got.Unit != m.Unit {
					t.Errorf("%s traced=%v: metric %s = %+v (present %v), want a finite value in %s",
						w.name, traced, m.Name, got, ok, m.Unit)
				}
			}
			if len(rep.metrics) != len(want) {
				t.Errorf("%s traced=%v: %d metrics reported, BENCHMARK.json names %d", w.name, traced, len(rep.metrics), len(want))
			}
			if !traced {
				continue
			}
			sc := checkSpans(rep.spans)
			if sc.exchanges == 0 || sc.bad != 0 {
				t.Errorf("%s: %d kept exchanges, %d spans outside their parent or with negative self time", w.name, sc.exchanges, sc.bad)
			}
			if w.name == "modbus-steady" && sc.coverage < 0.9 {
				t.Errorf("modbus-steady: child spans cover %.3f of an exchange, want at least 0.9", sc.coverage)
			}
		}
	}
}

// TestWorkloadsMatchBenchmarkFile keeps the workload table, BENCHMARK.json
// and the layer map in layers.json naming the same things.
func TestWorkloadsMatchBenchmarkFile(t *testing.T) {
	b := loadBenchmark(t)
	if len(b.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the benchmark has %d", len(b.Workloads), len(workloads))
	}
	for i, w := range b.Workloads {
		if w.Name != workloads[i].name {
			t.Errorf("workload %d: BENCHMARK.json %q, benchmark %q", i, w.Name, workloads[i].name)
		}
	}

	raw, err := os.ReadFile("layers.json")
	if err != nil {
		t.Fatal(err)
	}
	var lm struct {
		Workloads []string `json:"workloads"`
		Layers    []struct {
			Metrics []string `json:"metrics"`
			Moves   []struct {
				Metric    string   `json:"metric"`
				Workloads []string `json:"workloads"`
			} `json:"moves"`
		} `json:"layers"`
	}
	if err := json.Unmarshal(raw, &lm); err != nil {
		t.Fatal(err)
	}
	e2e, layerNames, names := map[string]bool{}, map[string]bool{}, map[string]bool{}
	for _, m := range b.EndToEnd {
		e2e[m.Name] = true
	}
	for _, m := range b.PerLayer {
		layerNames[m.Name] = true
	}
	for _, w := range workloads {
		names[w.name] = true
	}
	mapped := map[string]bool{}
	for _, l := range lm.Layers {
		for _, m := range l.Metrics {
			if !layerNames[m] {
				t.Errorf("layers.json maps %q, which BENCHMARK.json does not list as a per-layer metric", m)
			}
			mapped[m] = true
		}
		for _, mv := range l.Moves {
			if !e2e[mv.Metric] {
				t.Errorf("layers.json: %q is not an end-to-end metric", mv.Metric)
			}
			for _, w := range mv.Workloads {
				if !names[w] {
					t.Errorf("layers.json: unknown workload %q", w)
				}
			}
		}
	}
	for m := range layerNames {
		if !mapped[m] {
			t.Errorf("per-layer metric %q is in no layer of layers.json", m)
		}
	}
}

// TestCLIRejectsBadArguments checks the command-line contract: bad
// arguments exit non-zero without a result line.
func TestCLIRejectsBadArguments(t *testing.T) {
	for _, args := range [][]string{
		{"--workload", "nope"},
		{"--workload", "modbus-steady", "--seconds", "0"},
		{"--workload", "modbus-steady", "--trace", "2"},
	} {
		var out, errw bytes.Buffer
		if code := run(args, &out, &errw); code == 0 || out.Len() != 0 {
			t.Errorf("run(%v) = %d with output %q, want a non-zero exit and no result", args, code, out.String())
		}
	}
}
