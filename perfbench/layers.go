package main

import (
	"context"
	"fmt"
	"time"

	"qla/internal/codes"
	"qla/internal/commsim"
	"qla/internal/engine"
	"qla/internal/sweep"
	"qla/internal/threshold"
)

// perLayer are the metrics a traced run reports, on every workload; a
// layer a workload bypasses reads 0 there. NOTES.md names the
// end-to-end metric and workload each one is expected to move.
var perLayer = []metricDef{
	{"engine.decode_us", "us", "lower"},
	{"engine.canonical_us", "us", "lower"},
	{"threshold.l1_ns_per_trial", "ns", "lower"},
	{"threshold.l2_ns_per_trial", "ns", "lower"},
	{"codes.ns_per_trial", "ns", "lower"},
	{"commsim.ns_per_trial", "ns", "lower"},
	{"cyclesim.point_us", "us", "lower"},
	{"sweep.expand_us", "us", "lower"},
	{"cache.hits.memory", "count", "higher"},
	{"cache.hits.disk", "count", "higher"},
	{"cache.hits.peer", "count", "higher"},
	{"cache.hits.inflight", "count", "higher"},
	{"cache.misses", "count", "lower"},
	{"cache.hit_ratio", "ratio", "higher"},
	{"cache.peer_rtt_p50_ms", "ms", "lower"},
	{"sched.queue_wait_p50_ms.interactive", "ms", "lower"},
	{"sched.queue_wait_p50_ms.bulk", "ms", "lower"},
	{"sched.queue_wait_p99_ms.bulk", "ms", "lower"},
	{"sweep.point_p50_ms.ok", "ms", "lower"},
	{"sweep.point_p50_ms.cached", "ms", "lower"},
	{"sweep.defers", "count", "lower"},
	{"sweep.retries", "count", "lower"},
	{"journal.append_p50_ms", "ms", "lower"},
	{"journal.fsync_p50_ms", "ms", "lower"},
	{"journal.records", "count", "lower"},
	{"serve.run_server_p50_ms", "ms", "lower"},
	{"jobs.submit_p50_ms", "ms", "lower"},
	{"fleet.claims_sent", "count", "lower"},
	{"fleet.claims_denied", "count", "lower"},
	{"fleet.prefetched", "count", "higher"},
	{"fleet.coord_requests_per_point", "req/point", "lower"},
	{"fleet.stalled_sweeps", "count", "lower"},
	{"runtime.alloc_bytes_per_op", "B/op", "lower"},
	{"runtime.gc_cycles", "count", "lower"},
	{"self_ms.op.mc_spec", "ms", "lower"},
	{"self_ms.op.run_request", "ms", "lower"},
	{"self_ms.op.cold_sweep", "ms", "lower"},
	{"self_ms.op.warm_sweep", "ms", "lower"},
	{"self_ms.op.interactive_run", "ms", "lower"},
	{"self_ms.op.fleet_sweep", "ms", "lower"},
	{"self_ms.engine.run", "ms", "lower"},
	{"self_ms.http.run", "ms", "lower"},
	{"self_ms.http.submit", "ms", "lower"},
	{"self_ms.jobs.events_wait", "ms", "lower"},
	{"self_ms.fleet.compute", "ms", "lower"},
	{"self_ms.fleet.deferral_wait", "ms", "lower"},
	{"self_ms.check", "ms", "lower"},
	{"trace.spans", "count", "lower"},
	{"trace.overhead_pct.work_per_s", "%", "lower"},
	{"trace.overhead_pct.op_p50_ms", "%", "lower"},
}

// serverLayers derives the per-layer numbers a /metrics delta carries.
func serverLayers(d scrape, layers map[string]float64) {
	hits := 0.0
	for _, tier := range []string{"memory", "disk", "peer", "inflight"} {
		v := d.series[`qla_cache_hits_total{tier="`+tier+`"}`]
		layers["cache.hits."+tier] = v
		hits += v
	}
	misses := d.series["qla_cache_misses_total"]
	layers["cache.misses"] = misses
	if hits+misses > 0 {
		layers["cache.hit_ratio"] = hits / (hits + misses)
	}
	layers["cache.peer_rtt_p50_ms"] = d.quantileMS(family("qla_cache_peer_rtt_seconds"), 0.5)
	const qw = "qla_sched_queue_wait_seconds"
	layers["sched.queue_wait_p50_ms.interactive"] = d.quantileMS(hasLabel(qw, `class="interactive"`), 0.5)
	layers["sched.queue_wait_p50_ms.bulk"] = d.quantileMS(hasLabel(qw, `class="bulk"`), 0.5)
	layers["sched.queue_wait_p99_ms.bulk"] = d.quantileMS(hasLabel(qw, `class="bulk"`), 0.99)
	const pd = "qla_sweep_point_duration_seconds"
	layers["sweep.point_p50_ms.ok"] = d.quantileMS(hasLabel(pd, `outcome="ok"`), 0.5)
	layers["sweep.point_p50_ms.cached"] = d.quantileMS(hasLabel(pd, `outcome="cached"`), 0.5)
	layers["sweep.defers"] = d.series["qla_sweep_point_defers_total"]
	layers["sweep.retries"] = d.series["qla_sweep_point_retries_total"]
	layers["journal.append_p50_ms"] = d.quantileMS(family("qla_journal_append_seconds"), 0.5)
	layers["journal.fsync_p50_ms"] = d.quantileMS(family("qla_journal_fsync_seconds"), 0.5)
	layers["journal.records"] = d.total("qla_journal_records_total")
	layers["serve.run_server_p50_ms"] = d.quantileMS(hasLabel("qla_http_request_duration_seconds", `route="POST /v1/run"`), 0.5)
}

// measureLayers times single layers directly through their public
// entry points, on inputs derived from the workload seed.
func measureLayers(e *env, w workload, layers map[string]float64) error {
	ctx := context.Background()
	reps := 5
	if e.tiny {
		reps = 1
	}
	const us, ns = 1, 1e3
	bodies := hotBodies(e)
	specs := make([]engine.Spec, len(bodies))
	seed := e.seeded("layers")
	const l1Trials, l2Trials, codeTrials, chainTrials = 32768, 4096, 20000, 6000
	sweeps := layerSweeps(e, w)
	// The cycle simulator is timed on a sweep-durable point whatever the
	// workload: fleet-sweep points are figure7 runs.
	cold, err := sweep.Expand(coldSweep(e, newSweepSeeds(e)))
	if err != nil {
		return err
	}
	point := cold.Points[0].Canonical.Spec
	eng := engine.New()
	steps := []struct {
		name    string
		reps, n int
		scale   float64
		f       func() error
	}{
		{"engine.decode_us", reps * 20, len(bodies), us, func() error {
			for i, b := range bodies {
				s, err := engine.DecodeSpec(b)
				if err != nil {
					return err
				}
				specs[i] = s
			}
			return nil
		}},
		{"engine.canonical_us", reps * 20, len(bodies), us, func() error {
			for _, s := range specs {
				if _, err := engine.MakeCanonical(s); err != nil {
					return err
				}
			}
			return nil
		}},
		{"threshold.l1_ns_per_trial", reps, l1Trials, ns, func() error {
			_, err := threshold.SweepCtx(ctx, 1, []float64{2e-3}, l1Trials, seed, e.nproc, threshold.BackendBatch)
			return err
		}},
		{"threshold.l2_ns_per_trial", reps, l2Trials, ns, func() error {
			_, err := threshold.SweepCtx(ctx, 2, []float64{2e-3}, l2Trials, seed, e.nproc, threshold.BackendBatch)
			return err
		}},
		{"codes.ns_per_trial", reps, codeTrials * len(codes.All()), ns, func() error {
			_, err := codes.MonteCarloSweepBackend([]float64{0.01}, codeTrials, seed, codes.BackendBatch)
			return err
		}},
		{"commsim.ns_per_trial", reps, chainTrials, ns, func() error {
			_, err := commsim.RunChainCtx(ctx, commsim.ChainConfig{Links: 4, LinkEps: 0.06, PurifyRounds: 1,
				Trials: chainTrials, Seed: seed, Parallelism: e.nproc, Backend: commsim.BackendBatch})
			return err
		}},
		{"cyclesim.point_us", reps * 20, 1, us, func() error {
			_, err := eng.Run(ctx, point)
			return err
		}},
		{"sweep.expand_us", reps * 4, len(sweeps), us, func() error {
			for _, s := range sweeps {
				if _, err := sweep.Expand(s); err != nil {
					return err
				}
			}
			return nil
		}},
	}
	for _, st := range steps {
		if err := timeLayer(layers, st.name, st.reps, st.n, st.scale, st.f); err != nil {
			return err
		}
	}
	return nil
}

// timeLayer stores under name the median over reps of one call's wall
// time divided by the n operations it performs, in microseconds times
// scale.
func timeLayer(layers map[string]float64, name string, reps, n int, scale float64, f func() error) error {
	var xs []float64
	for i := 0; i < reps; i++ {
		t0 := time.Now()
		if err := f(); err != nil {
			return fmt.Errorf("%s: %w", name, err)
		}
		xs = append(xs, float64(time.Since(t0).Nanoseconds())/1e3/float64(n)*scale)
	}
	layers[name] = median(xs)
	return nil
}
