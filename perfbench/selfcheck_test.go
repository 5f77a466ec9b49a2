package main

import (
	"encoding/json"
	"os"
	"testing"
	"time"
)

// requiredChecks are the correctness checks each workload must run; a
// workload that skips one fails the self-check.
var requiredChecks = map[string][]string{
	"mc-threshold":  {"mc.fig7_rising", "mc.repeat_identical", "mc.crossing_band"},
	"serve-run":     {"serve.hit_is_hit", "serve.hit_bytes", "serve.spec_hash", "serve.miss_is_miss"},
	"sweep-durable": {"sweep.job_done", "sweep.cold_uncached", "sweep.warm_all_cached", "serve.spec_hash", "serve.miss_is_miss"},
	"fleet-sweep":   {"sweep.job_done", "fleet.replicas_identical"},
}

// TestSelfCheck runs every workload at minimal size, untraced and
// traced, and fails if a metric is missing or unitless, an end-to-end
// metric reads 0, or a correctness check was skipped or failed.
func TestSelfCheck(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload for a few seconds")
	}
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			for _, traced := range []bool{false, true} {
				e, cleanup, err := newEnv(t.TempDir(), 1, 500*time.Millisecond, true)
				if err != nil {
					t.Fatal(err)
				}
				defer cleanup()
				res, _, err := measure(w, e, traced)
				if err != nil {
					t.Fatalf("traced=%v: %v", traced, err)
				}
				if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
					t.Errorf("traced=%v: correct=%v attempted=%d failed=%d", traced, res.Correct, res.Attempted, res.Failed)
				}
				want := endToEnd
				if traced {
					want = perLayer
				}
				if len(res.Metrics) != len(want) {
					t.Errorf("traced=%v: %d metrics, want %d", traced, len(res.Metrics), len(want))
				}
				for _, m := range want {
					got, ok := res.Metrics[m.Name]
					switch {
					case !ok:
						t.Errorf("traced=%v: metric %s missing", traced, m.Name)
					case got.Unit == "" || got.Unit != m.Unit:
						t.Errorf("traced=%v: metric %s unit %q, want %q", traced, m.Name, got.Unit, m.Unit)
					case !traced && got.Value <= 0:
						t.Errorf("metric %s = %v, want > 0", m.Name, got.Value)
					}
				}
			}
			o := newOutcome()
			e, cleanup, err := newEnv(t.TempDir(), 2, 500*time.Millisecond, true)
			if err != nil {
				t.Fatal(err)
			}
			defer cleanup()
			if err := w.run(e, o); err != nil {
				t.Fatal(err)
			}
			for _, c := range requiredChecks[w.name] {
				if o.checks[c] == 0 {
					t.Errorf("check %s never ran", c)
				}
			}
			if len(o.violations) > 0 {
				t.Errorf("violations: %v", o.violations)
			}
		})
	}
}

// TestBenchmarkJSON pins BENCHMARK.json to the workloads and metrics
// this program reports.
func TestBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		Workloads []struct{ Name, Why string }
		EndToEnd  []metricDef `json:"end_to_end"`
		PerLayer  []metricDef `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	if len(b.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d here", len(b.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if b.Workloads[i].Name != w.name {
			t.Errorf("workload %d: %q in BENCHMARK.json, %q here", i, b.Workloads[i].Name, w.name)
		}
	}
	same := func(kind string, got, want []metricDef) {
		if len(got) != len(want) {
			t.Errorf("%s: %d metrics in BENCHMARK.json, %d here", kind, len(got), len(want))
			return
		}
		for i := range want {
			if got[i] != want[i] {
				t.Errorf("%s %d: %+v in BENCHMARK.json, %+v here", kind, i, got[i], want[i])
			}
		}
	}
	same("end_to_end", b.EndToEnd, endToEnd)
	same("per_layer", b.PerLayer, perLayer)
}
