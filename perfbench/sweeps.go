package main

import (
	"encoding/json"
	"fmt"
	"math/rand/v2"
	"net/http"
	"path/filepath"
	"sync"
	"time"

	"qla/internal/engine"
	"qla/internal/jobs"
	"qla/internal/serve"
	"qla/internal/sweep"
)

// The sweep-durable workload: one replica with a disk cache tier and a
// write-ahead journal. Connection 1 submits cold sweeps of cheap
// cycle-interconnect points one at a time, each followed by its warm
// twin (the same points with the axes reordered: a new sweep hash whose
// every point is a cache hit), timing each from submit to the done
// event. Connection 2 sends small figure7 /v1/run misses throughout as
// interactive traffic, pausing interactivePause after each reply.
//
// Points cost about a millisecond of simulation each, so the disk
// tier's per-point file write (tens of microseconds to over half a
// millisecond, depending on the host's file system) does not decide the
// cold sweep time alone. The pause keeps the two closed loops from
// locking into different slot-sharing patterns from run to run: without
// it, back-to-back interactive runs hold both scheduler slots for most
// of the window and the cold sweep median moved by up to 65% between
// runs of one binary.

// interactivePause is connection 2's think time between replies.
const interactivePause = 20 * time.Millisecond

// sweepSeeds hands out never-repeating workload seeds.
type sweepSeeds struct {
	rng  *rand.Rand
	seen map[uint64]bool
}

func newSweepSeeds(e *env) *sweepSeeds {
	return &sweepSeeds{rng: rand.New(rand.NewPCG(e.seeded("sweep-durable"), 5)), seen: map[uint64]bool{}}
}

func (s *sweepSeeds) next() uint64 {
	for {
		v := s.rng.Uint64() >> 20
		if !s.seen[v] {
			s.seen[v] = true
			return v
		}
	}
}

// coldSweep is a 36-point cycle-interconnect grid (3 bandwidths × 3
// grid sizes × 4 fresh workload seeds, 1024 ops each); tiny runs use
// 2×2×2.
func coldSweep(e *env, seeds *sweepSeeds) sweep.Spec {
	bw, grids, nseed := []any{1, 2, 4}, []any{4, 6, 8}, 4
	if e.tiny {
		bw, grids, nseed = []any{1, 2}, []any{4, 6}, 2
	}
	var ss []any
	for i := 0; i < nseed; i++ {
		ss = append(ss, seeds.next())
	}
	return sweep.Spec{
		Base: engine.Spec{Experiment: "cycle-interconnect", Params: engine.Params{"ops": 1024, "window": 64}},
		Axes: []sweep.Axis{
			{Field: "machine.bandwidth", Values: bw},
			{Field: "params.grid", Values: grids},
			{Field: "params.seed", Values: ss},
		},
	}
}

// warmTwin reverses the axis order: the same points under a new sweep
// hash.
func warmTwin(s sweep.Spec) sweep.Spec {
	tw := s
	tw.Axes = nil
	for i := len(s.Axes) - 1; i >= 0; i-- {
		tw.Axes = append(tw.Axes, s.Axes[i])
	}
	return tw
}

// layerSweeps are the sweep Specs sweep.expand_us expands: the
// workload's own for the sweep workloads, the sweep-durable grid
// otherwise.
func layerSweeps(e *env, w workload) []sweep.Spec {
	if w.name == "fleet-sweep" {
		fs := newFleetStream(e)
		return []sweep.Spec{fs.next(), fs.next()}
	}
	seeds := newSweepSeeds(e)
	c := coldSweep(e, seeds)
	return []sweep.Spec{c, warmTwin(c)}
}

type durableState struct {
	reps   []*replica
	c1, c2 *conn
}

func (s *durableState) close() { s.c1.close(); s.c2.close(); stopReplicas(s.reps) }

// warmUp takes one cold sweep and one interactive run through the
// fresh replica, so its journal, disk tier and lazily built state exist
// before anything is timed; its seeds never occur in the measured
// window. A smaller warm-up left set-up at a few milliseconds, where
// the host's scheduling noise made it bimodal.
func (s *durableState) warmUp(e *env, i int) error {
	seeds := &sweepSeeds{rng: rand.New(rand.NewPCG(e.seeded("sweep-durable/setup"), uint64(i))), seen: map[uint64]bool{}}
	body, err := json.Marshal(coldSweep(e, seeds))
	if err != nil {
		return err
	}
	id, err := s.c1.submitSweep(body)
	if err != nil {
		return err
	}
	if snap, err := s.c1.waitDone(id); err != nil || snap.State != jobs.StateDone {
		return fmt.Errorf("warm-up sweep: state %q: %v", snap.State, err)
	}
	r, err := s.c2.post("/v1/run", fmt.Appendf(nil, `{"experiment":"figure7","params":{"trials":128,"seed":%d}}`, seeds.next()))
	if err == nil && r.status != http.StatusOK {
		err = fmt.Errorf("status %d", r.status)
	}
	if err != nil {
		return fmt.Errorf("warm-up run: %w", err)
	}
	return nil
}

func runSweepDurable(e *env, o *outcome) error {
	st, err := timedSetup(e, o, func(i int) (*durableState, error) {
		dir := filepath.Join(e.workDir, fmt.Sprintf("durable-%d", i))
		reps, err := startReplicas(1, func(_ int, cfg *serve.Config) {
			cfg.CacheDir = filepath.Join(dir, "cache")
			cfg.JournalDir = filepath.Join(dir, "journal")
		})
		if err != nil {
			return nil, err
		}
		s := &durableState{reps, newConn(reps[0].url), newConn(reps[0].url)}
		if err := s.warmUp(e, i); err != nil {
			s.close()
			return nil, err
		}
		return s, nil
	}, (*durableState).close)
	if err != nil {
		return err
	}
	defer st.close()

	before, err := scrapeOf(st.c1)
	if err != nil {
		return err
	}
	seeds := newSweepSeeds(e)
	var (
		cold, warm, submit latencies
		points             int
		mu                 sync.Mutex // guards o between the two connections
		stop               = make(chan struct{})
		wg                 sync.WaitGroup
		inter              interactiveResult
	)
	wg.Add(1)
	go func() {
		defer wg.Done()
		inter = interactive(e, st.c2, stop, &mu, o)
	}()
	stopInteractive := sync.OnceFunc(func() { close(stop); wg.Wait() })
	defer stopInteractive()

	start := time.Now()
	minSweeps := 4
	for k := 1; time.Since(start) < e.measure || len(cold) < minSweeps; k++ {
		cs := coldSweep(e, seeds)
		for j, kind := range []string{"cold", "warm"} {
			trace := 2*k + j
			spec := cs
			if kind == "warm" {
				spec = warmTwin(cs)
			}
			body, err := json.Marshal(spec)
			if err != nil {
				return err
			}
			root, endRoot := e.tr.begin("op."+kind+"_sweep", trace, 0)
			t0 := time.Now()
			_, endSubmit := e.tr.begin("http.submit", trace, root)
			id, err := st.c1.submitSweep(body)
			endSubmit()
			sub := time.Since(t0)
			var snap jobs.Snapshot
			if err == nil {
				_, endWait := e.tr.begin("jobs.events_wait", trace, root)
				snap, err = st.c1.waitDone(id)
				endWait()
			}
			lat := time.Since(t0)
			endRoot()
			mu.Lock()
			o.attempted++
			if err != nil {
				o.fail(err)
				mu.Unlock()
				continue
			}
			submit = append(submit, sub)
			p := snap.Progress
			o.check("sweep.job_done", snap.State == jobs.StateDone && p.Done == p.Total && p.Failed == 0,
				"%s sweep %s ended %s with %d/%d ok, %d failed", kind, id[:12], snap.State, p.Done-p.Failed, p.Total, p.Failed)
			if kind == "cold" {
				cold = append(cold, lat)
				o.check("sweep.cold_uncached", p.Cached == 0, "cold sweep %s had %d cached points", id[:12], p.Cached)
			} else {
				warm = append(warm, lat)
				o.check("sweep.warm_all_cached", p.Cached == p.Total, "warm twin %s: %d of %d cached", id[:12], p.Cached, p.Total)
			}
			points += p.Total
			mu.Unlock()
		}
	}
	elapsed := time.Since(start)
	stopInteractive()
	after, err := scrapeOf(st.c1)
	if err != nil {
		return err
	}
	inter.verify(o)
	serverLayers(delta(before, after), o.layers)
	o.layers["jobs.submit_p50_ms"] = submit.pct(50)

	o.workPerS = float64(points) / elapsed.Seconds()
	o.opP50MS = cold.pct(50)
	o.add("points_per_s", o.workPerS, "1/s", points, "cold and warm sweep points")
	o.add("sweep_p50_ms", o.opP50MS, "ms", len(cold), "cold sweeps")
	o.add("warm_sweep_p50_ms", warm.pct(50), "ms", len(warm), "")
	o.add("interactive_p50_ms", inter.lat.pct(50), "ms", len(inter.lat), "figure7 /v1/run misses beside the sweeps")
	return nil
}

// interactiveResult is connection 2's record.
type interactiveResult struct {
	lat    latencies
	bodies [][]byte
	hashes []string
}

// verify checks every interactive reply's content address after the
// window.
func (r interactiveResult) verify(o *outcome) {
	for i, b := range r.bodies {
		o.check("serve.spec_hash", specHashOf(b) == r.hashes[i], "interactive X-Spec-Hash %q wrong for %s", r.hashes[i], b)
	}
}

// interactive sends fresh small figure7 runs, one per reply plus
// interactivePause, until stop closes.
func interactive(e *env, c *conn, stop <-chan struct{}, mu *sync.Mutex, o *outcome) interactiveResult {
	rng := rand.New(rand.NewPCG(e.seeded("sweep-durable/interactive"), 6))
	seen := map[uint64]bool{}
	var res interactiveResult
	for k := 1; ; k++ {
		select {
		case <-stop:
			return res
		default:
		}
		seed := rng.Uint64() >> 20
		if seen[seed] {
			continue
		}
		seen[seed] = true
		body := fmt.Appendf(nil, `{"experiment":"figure7","params":{"trials":128,"seed":%d}}`, seed)
		root, endRoot := e.tr.begin("op.interactive_run", -k, 0)
		_, endHTTP := e.tr.begin("http.run", -k, root)
		t0 := time.Now()
		r, err := c.post("/v1/run", body)
		lat := time.Since(t0)
		endHTTP()
		endRoot()
		mu.Lock()
		o.attempted++
		switch {
		case err != nil:
			o.fail(err)
		case r.status != http.StatusOK:
			o.fail(fmt.Errorf("interactive POST /v1/run: status %d: %s", r.status, r.body))
		default:
			res.lat = append(res.lat, lat)
			o.check("serve.miss_is_miss", r.header.Get("X-Cache") == "miss", "fresh interactive run answered X-Cache %q", r.header.Get("X-Cache"))
			res.bodies = append(res.bodies, body)
			res.hashes = append(res.hashes, r.header.Get("X-Spec-Hash"))
		}
		mu.Unlock()
		select {
		case <-stop:
			return res
		case <-time.After(interactivePause):
		}
	}
}
