package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/rand/v2"
	"time"

	"qla/internal/engine"
	"qla/internal/threshold"
)

// The mc-threshold workload: Engine.Run with no server over a seeded
// stream of same-size batch-backend Monte Carlo Specs. Six in eight are
// figure7 runs bracketing the paper's pseudo-threshold; the rest are
// code-ablation and chain-validation runs, so a shared-kernel change
// that helps threshold but slows codes or commsim shows here too.

// fig7Errors brackets the paper's (2.1 ± 1.8)e-3 pseudo-threshold with
// a factor of two between points, so failure rates rise by several
// standard errors from point to point at any seed.
var fig7Errors = []float64{1e-3, 2e-3, 4e-3}

// mcSizes are the per-Spec trial counts.
type mcSizes struct {
	fig7, codes, chain int
}

func (e *env) mcSizes() mcSizes {
	if e.tiny {
		// figure7 keeps its size: the rising-rate check needs it.
		return mcSizes{fig7: 32768, codes: 2000, chain: 200}
	}
	// A codes or chain trial costs a few percent of a figure7 trial, so
	// these sizes keep figure7 at about 70% of the trials counted and
	// nearly all of the time.
	return mcSizes{fig7: 32768, codes: 20000, chain: 6000}
}

// mcStream yields the workload's Specs: every one has a fresh seed, so
// nothing repeats.
type mcStream struct {
	rng   *rand.Rand
	sizes mcSizes
	seen  map[uint64]bool
	n     int
}

func newMCStream(e *env) *mcStream {
	return &mcStream{rng: rand.New(rand.NewPCG(e.seeded("mc-threshold"), 1)), sizes: e.mcSizes(), seen: map[uint64]bool{}}
}

func (s *mcStream) freshSeed() uint64 {
	for {
		v := s.rng.Uint64() >> 16
		if !s.seen[v] {
			s.seen[v] = true
			return v
		}
	}
}

func (s *mcStream) next() engine.Spec {
	k := s.n % 8
	s.n++
	seed := s.freshSeed()
	switch k {
	case 6:
		return engine.Spec{Experiment: "code-ablation", Params: engine.Params{
			"mc-trials": s.sizes.codes, "mc-seed": seed, "backend": "batch"}}
	case 7:
		return engine.Spec{Experiment: "chain-validation", Params: engine.Params{
			"trials": s.sizes.chain, "seed": seed, "backend": "batch"}}
	}
	return engine.Spec{Experiment: "figure7", Params: engine.Params{
		"phys-errors": fig7Errors, "trials": s.sizes.fig7, "seed": seed, "backend": "batch"}}
}

// trialsOf counts the Monte Carlo trials a result completed.
func trialsOf(res engine.Result) int {
	n := 0
	switch d := res.Data.(type) {
	case engine.Figure7Data:
		for _, p := range append(append([]threshold.Point(nil), d.L1...), d.L2...) {
			n += p.Trials
		}
	case engine.CodeAblationData:
		for _, r := range d.MonteCarlo {
			n += r.Trials
		}
	case engine.ChainValidationData:
		for _, r := range d.Rows {
			n += r.Config.Trials
		}
		n += d.Compare.Naive.Config.Trials + d.Compare.Repeater.Config.Trials
	}
	return n
}

func runMC(e *env, o *outcome) error {
	ctx := context.Background()
	eng, err := timedSetup(e, o, func(i int) (*engine.Engine, error) {
		eng := engine.New(engine.WithParallelism(e.nproc))
		// One run of each kind builds the lazily initialised tables and
		// worker pools before anything is timed.
		for _, s := range warmSpecs(e, i) {
			if _, err := eng.Run(ctx, s); err != nil {
				return nil, err
			}
		}
		return eng, nil
	}, func(*engine.Engine) {})
	if err != nil {
		return err
	}

	stream := newMCStream(e)
	var (
		fig7, codesLat, chainLat latencies
		trials                   int
		firstOfKind              = map[string]engine.Spec{}
		firstData                = map[string][]byte{}
	)
	start := time.Now()
	for k := 1; time.Since(start) < e.measure || o.attempted < 8; k++ {
		spec := stream.next()
		root, endRoot := e.tr.begin("op.mc_spec", k, 0)
		_, endRun := e.tr.begin("engine.run", k, root)
		t0 := time.Now()
		res, err := eng.Run(ctx, spec)
		lat := time.Since(t0)
		endRun()
		o.attempted++
		if err != nil {
			o.fail(err)
			endRoot()
			continue
		}
		trials += trialsOf(res)
		switch spec.Experiment {
		case "figure7":
			fig7 = append(fig7, lat)
			_, endCheck := e.tr.begin("check", k, root)
			checkRising(o, res)
			endCheck()
		case "code-ablation":
			codesLat = append(codesLat, lat)
		default:
			chainLat = append(chainLat, lat)
		}
		if _, ok := firstOfKind[spec.Experiment]; !ok {
			firstOfKind[spec.Experiment] = spec
			raw, err := json.Marshal(res.Data)
			if err != nil {
				return err
			}
			firstData[spec.Experiment] = raw
		}
		endRoot()
	}
	elapsed := time.Since(start)

	// Determinism: the first Spec of each kind again, on a serial engine
	// — results are bit-identical at any parallelism for a fixed seed.
	serial := engine.New(engine.WithParallelism(1))
	for kind, spec := range firstOfKind {
		res, err := serial.Run(ctx, spec)
		if err != nil {
			o.check("mc.repeat_identical", false, "%s rerun: %v", kind, err)
			continue
		}
		raw, err := json.Marshal(res.Data)
		if err != nil {
			return err
		}
		o.check("mc.repeat_identical", bytes.Equal(raw, firstData[kind]), "%s rerun gave different Data", kind)
	}
	// The pinned validation Spec: the crossing band internal/threshold's
	// TestFigure7Shape asserts, at its seeds and sizes.
	res, err := eng.Run(ctx, engine.Spec{Experiment: "figure7", Params: engine.Params{
		"phys-errors": []float64{5e-4, 1.5e-3, 4e-3}, "trials": 60000, "trials-l2": 30000, "seed": 11}})
	if err != nil {
		o.check("mc.crossing_band", false, "validation run: %v", err)
	} else {
		c := res.Data.(engine.Figure7Data).Crossing
		o.check("mc.crossing_band", c >= 2e-4 && c <= 4e-3, "crossing %.3g outside [2e-4, 4e-3]", c)
	}

	o.workPerS = float64(trials) / elapsed.Seconds()
	o.opP50MS = fig7.pct(50)
	o.add("trials_per_s", o.workPerS, "1/s", trials, fmt.Sprintf("%d trials in %.2f s", trials, elapsed.Seconds()))
	o.add("fig7_p50_ms", o.opP50MS, "ms", len(fig7), "")
	if p := fig7.tailPct(); p > 0 {
		o.add(fmt.Sprintf("fig7_p%g_ms", p), fig7.pct(p), "ms", len(fig7), "")
	}
	o.add("codes_p50_ms", codesLat.pct(50), "ms", len(codesLat), "code-ablation Specs")
	o.add("chain_p50_ms", chainLat.pct(50), "ms", len(chainLat), "chain-validation Specs")
	return nil
}

// checkRising asserts a figure7 result's failure rates rise with
// physical error at both levels.
func checkRising(o *outcome, res engine.Result) {
	d := res.Data.(engine.Figure7Data)
	for lvl, pts := range [][]threshold.Point{d.L1, d.L2} {
		ok := len(pts) == len(fig7Errors)
		for i := 1; ok && i < len(pts); i++ {
			ok = pts[i].FailRate > pts[i-1].FailRate
		}
		o.check("mc.fig7_rising", ok, "level %d failure rates not rising with physical error (seed %v)", lvl+1, res.Seed)
	}
}

// warmSpecs is one full-size Spec of each kind the workload runs, on
// seeds of their own. Set-ups of a few milliseconds were bimodal on a
// shared two-core host, so the median of several jumped between modes
// from run to run.
func warmSpecs(e *env, i int) []engine.Spec {
	s := newMCStream(e)
	s.rng = rand.New(rand.NewPCG(e.seeded("mc-threshold/setup"), uint64(i)))
	specs := []engine.Spec{s.next()}
	for s.n%8 != 6 {
		s.n++
	}
	return append(specs, s.next(), s.next())
}
