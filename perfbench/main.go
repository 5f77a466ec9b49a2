// Command perfbench is the QLA simulator's end-to-end benchmark. One
// invocation runs one named workload for a fixed time against the
// simulator's public entry points (engine.Engine.Run, threshold.SweepCtx,
// sweep.Expand and serve.New(...).Handler() over loopback HTTP, read
// back through GET /metrics and GET /v1/stats), checks every output it
// receives, and prints one JSON result line last. From the repository
// root:
//
//	bash perfbench/run.sh --workload serve-run --seed 1 --seconds 25 --trace 0
//
// With --trace 0 the result carries the end-to-end metrics; with
// --trace 1 the run is made twice, untraced then traced, and the result
// carries the per-layer metrics: span self times, /metrics and
// /v1/stats deltas, layer micro-measurements and the tracing overhead.
// NOTES.md documents every workload and metric.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"time"
)

// metricDef declares one reported metric.
type metricDef struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"`
}

// endToEnd are the metrics every workload reports untraced. work_per_s
// counts the workload's unit of work (see workload.workUnit) and
// op_p50_ms times its primary client operation (workload.opName).
var endToEnd = []metricDef{
	{"work_per_s", "1/s", "higher"},
	{"op_p50_ms", "ms", "lower"},
	{"peak_rss_mb", "MB", "lower"},
	{"setup_s", "s", "lower"},
}

// workload is one traffic mix.
type workload struct {
	name     string
	workUnit string // what work_per_s counts
	opName   string // what op_p50_ms times
	run      func(e *env, o *outcome) error
}

var workloads = []workload{
	{"mc-threshold", "Monte Carlo trials", "one figure7 Engine.Run", runMC},
	{"serve-run", "POST /v1/run requests", "one POST /v1/run cache hit", runServeRun},
	{"sweep-durable", "sweep points (cold and warm)", "one cold sweep, submit to done", runSweepDurable},
	{"fleet-sweep", "sweep points", "one fleet sweep, submit to both replicas done", runFleetSweep},
}

// env is what one measured pass of a workload receives.
type env struct {
	seed    uint64
	measure time.Duration
	setups  int     // set-ups timed per pass; the last one is measured
	tiny    bool    // self-check sizes: every code path, minimal work
	tr      *tracer // nil when untraced
	workDir string  // working directory inside the checkout
	nproc   int     // client goroutine and connection bound
}

// outcome accumulates one pass's counts, checks and metrics.
type outcome struct {
	attempted, failed int
	checks            map[string]int
	violations        []string
	setupS            []float64
	workPerS          float64
	opP50MS           float64
	report            []reported
	layers            map[string]float64
}

// reported is one workload-specific metric printed in the report line.
type reported struct {
	Name    string  `json:"name"`
	Value   float64 `json:"value"`
	Unit    string  `json:"unit"`
	Samples int     `json:"samples,omitempty"`
	Note    string  `json:"note,omitempty"`
}

func newOutcome() *outcome {
	return &outcome{checks: map[string]int{}, layers: map[string]float64{}}
}

// check records that a named correctness check ran, and a violation
// when it failed.
func (o *outcome) check(name string, ok bool, format string, args ...any) {
	o.checks[name]++
	if !ok && len(o.violations) < 20 {
		o.violations = append(o.violations, name+": "+fmt.Sprintf(format, args...))
	}
}

// fail counts a failed operation and records why.
func (o *outcome) fail(err error) {
	o.failed++
	if len(o.violations) < 20 {
		o.violations = append(o.violations, "operation failed: "+err.Error())
	}
}

func (o *outcome) add(name string, v float64, unit string, samples int, note string) {
	o.report = append(o.report, reported{name, v, unit, samples, note})
}

// timedSetup builds the system under test e.setups times, tearing down
// all but the last build, and records each build's wall time.
func timedSetup[T any](e *env, o *outcome, build func(i int) (T, error), teardown func(T)) (T, error) {
	var cur T
	for i := 0; i < e.setups; i++ {
		start := time.Now()
		v, err := build(i)
		if err != nil {
			return cur, fmt.Errorf("set-up: %w", err)
		}
		o.setupS = append(o.setupS, time.Since(start).Seconds())
		if i < e.setups-1 {
			teardown(v)
		} else {
			cur = v
		}
	}
	return cur, nil
}

// result is the last stdout line.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func main() {
	name := flag.String("workload", "", "workload to run: mc-threshold, serve-run, sweep-durable or fleet-sweep")
	seed := flag.Uint64("seed", 1, "workload seed: the same seed gives the same inputs")
	seconds := flag.Int("seconds", 20, "measured seconds per pass")
	trace := flag.Int("trace", 0, "1 = traced run reporting per-layer metrics, 0 = end-to-end metrics")
	flag.Parse()
	code, err := run(*name, *seed, *seconds, *trace == 1, os.Stdout)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
	}
	os.Exit(code)
}

// run executes one benchmark invocation and writes its report lines
// and the final result line to out. Exit code 1 means a correctness
// violation (the result line is still printed); 2 means the run could
// not be made at all (no result line).
func run(name string, seed uint64, seconds int, traced bool, out *os.File) (int, error) {
	w, ok := findWorkload(name)
	if !ok {
		return 2, fmt.Errorf("unknown workload %q", name)
	}
	if seconds < 1 {
		return 2, fmt.Errorf("--seconds must be at least 1")
	}
	e, cleanup, err := newEnv(".bench_build", seed, time.Duration(seconds)*time.Second, false)
	if err != nil {
		return 2, err
	}
	defer cleanup()
	meta, err := readMeta(seed)
	if err != nil {
		return 2, err
	}
	fmt.Fprintln(out, mustJSON(map[string]any{"meta": meta, "workload": w.name, "trace": traced}))
	res, lines, err := measure(w, e, traced)
	if err != nil {
		return 2, err
	}
	for _, l := range lines {
		fmt.Fprintln(out, l)
	}
	fmt.Fprintln(out, mustJSON(res))
	if !res.Correct {
		return 1, errors.New("correctness check failed")
	}
	return 0, nil
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// newEnv prepares a run environment with its working directory under
// base.
func newEnv(base string, seed uint64, measure time.Duration, tiny bool) (*env, func(), error) {
	if err := os.MkdirAll(base, 0o755); err != nil {
		return nil, nil, err
	}
	dir, err := os.MkdirTemp(base, "perfbench-work-")
	if err != nil {
		return nil, nil, err
	}
	e := &env{seed: seed, measure: measure, setups: 9, tiny: tiny, workDir: dir, nproc: nproc()}
	if tiny {
		e.setups = 2
	}
	return e, func() { os.RemoveAll(dir) }, nil
}

// measure runs w untraced (and, when traced, a second time with spans
// on) and assembles the result plus the human-readable report lines.
func measure(w workload, e *env, traced bool) (result, []string, error) {
	plain, err := pass(w, e, nil)
	if err != nil {
		return result{}, nil, err
	}
	passes := []*outcome{plain}
	var lines []string
	lines = append(lines, reportLine(w, plain, "untraced"))
	res := result{Metrics: map[string]metricValue{}}
	if !traced {
		rss, err := peakRSSMB()
		if err != nil {
			return result{}, nil, err
		}
		vals := map[string]float64{
			"work_per_s":  plain.workPerS,
			"op_p50_ms":   plain.opP50MS,
			"peak_rss_mb": rss,
			"setup_s":     median(plain.setupS),
		}
		for _, m := range endToEnd {
			res.Metrics[m.Name] = metricValue{vals[m.Name], m.Unit}
		}
	} else {
		tr := &tracer{}
		tracedOut, err := pass(w, e, tr)
		if err != nil {
			return result{}, nil, err
		}
		passes = append(passes, tracedOut)
		lines = append(lines, reportLine(w, tracedOut, "traced"))
		layers := tracedOut.layers
		for name, st := range tr.selfTimes() {
			layers["self_ms."+name] = st.meanMS()
			layers["trace.spans"] += float64(st.count)
		}
		layers["trace.overhead_pct.work_per_s"] = pctChange(plain.workPerS, tracedOut.workPerS)
		layers["trace.overhead_pct.op_p50_ms"] = pctChange(plain.opP50MS, tracedOut.opP50MS)
		if err := measureLayers(e, w, layers); err != nil {
			return result{}, nil, err
		}
		for _, m := range perLayer {
			res.Metrics[m.Name] = metricValue{layers[m.Name], m.Unit}
		}
	}
	res.Correct = true
	for _, o := range passes {
		res.Attempted += o.attempted
		res.Failed += o.failed
		if len(o.violations) > 0 || o.failed > 0 {
			res.Correct = false
		}
	}
	return res, lines, nil
}

// pass sets the workload up, measures it and checks its outputs.
func pass(w workload, e *env, tr *tracer) (*outcome, error) {
	pe := *e
	pe.tr = tr
	// Each pass starts from empty disk tiers and journals.
	dir, err := os.MkdirTemp(e.workDir, "pass-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	pe.workDir = dir
	o := newOutcome()
	rt0 := readRuntime()
	if err := w.run(&pe, o); err != nil {
		return nil, fmt.Errorf("%s: %w", w.name, err)
	}
	rt1 := readRuntime()
	if o.attempted > 0 {
		o.layers["runtime.alloc_bytes_per_op"] = float64(rt1.allocBytes-rt0.allocBytes) / float64(o.attempted)
	}
	o.layers["runtime.gc_cycles"] = float64(rt1.gcCycles - rt0.gcCycles)
	return o, nil
}

// reportLine renders a pass's counts, checks and workload-specific
// metrics as one JSON line.
func reportLine(w workload, o *outcome, mode string) string {
	return mustJSON(map[string]any{
		"report":     w.name,
		"pass":       mode,
		"attempted":  o.attempted,
		"succeeded":  o.attempted - o.failed,
		"failed":     o.failed,
		"work_unit":  w.workUnit,
		"op":         w.opName,
		"checks":     o.checks,
		"violations": o.violations,
		"metrics":    o.report,
		"setup_s":    o.setupS,
	})
}

func pctChange(base, v float64) float64 {
	if base == 0 {
		return 0
	}
	return (v - base) / base * 100
}

func mustJSON(v any) string {
	raw, err := json.Marshal(v)
	if err != nil {
		panic(err) // only plain maps, slices and numbers are marshaled
	}
	return string(raw)
}

// seeded derives an independent stream seed for one purpose.
func (e *env) seeded(purpose string) uint64 {
	h := uint64(1469598103934665603)
	for i := 0; i < len(purpose); i++ {
		h ^= uint64(purpose[i])
		h *= 1099511628211
	}
	return h ^ (e.seed * 0x9e3779b97f4a7c15)
}
