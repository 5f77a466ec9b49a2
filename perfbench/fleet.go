package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand/v2"
	"net/http"
	"strings"
	"time"

	"qla/internal/engine"
	"qla/internal/jobs"
	"qla/internal/serve"
	"qla/internal/sweep"
)

// The fleet-sweep workload: two in-process replicas with one worker
// each, on the lease settings the repository's fleet tests use. One
// connection submits seeded figure7 seed-axis sweeps to replica 0 one
// at a time; a second follows replica 1's copy of each sweep, so a
// sweep counts as finished when both replicas have settled it.
//
// Known program defect, measured rather than avoided: a replica drops
// its lease ledger when its own job settles, so its peer's ledger poll
// never sees the final completions, and points the peer deferred wait
// out the full lease before they are fetched from the peer cache. The
// short lease keeps each stall to about leaseTTL; fleet.stalled_sweeps
// counts the sweeps it hit and the traced run's fleet.deferral_wait
// spans carry the extra time.

const (
	leaseTTL    = 2 * time.Second
	fleetPoll   = 50 * time.Millisecond
	peerTimeout = time.Second
)

// fleetStream yields 24-point figure7 sweeps over fresh seeds.
type fleetStream struct {
	rng    *rand.Rand
	seen   map[uint64]bool
	points int
}

func newFleetStream(e *env) *fleetStream {
	n := 24
	if e.tiny {
		n = 4
	}
	return &fleetStream{rng: rand.New(rand.NewPCG(e.seeded("fleet-sweep"), 7)), seen: map[uint64]bool{}, points: n}
}

func (f *fleetStream) next() sweep.Spec {
	var seeds []any
	for len(seeds) < f.points {
		v := f.rng.Uint64() >> 20
		if !f.seen[v] {
			f.seen[v] = true
			seeds = append(seeds, v)
		}
	}
	return sweep.Spec{
		Base: engine.Spec{Experiment: "figure7", Params: engine.Params{"phys-errors": fig7Errors, "trials": 2048, "backend": "batch"}},
		Axes: []sweep.Axis{{Field: "params.seed", Values: seeds}},
	}
}

type fleetState struct {
	reps   []*replica
	c0, c1 *conn
}

func (s *fleetState) close() { s.c0.close(); s.c1.close(); stopReplicas(s.reps) }

// warmUp runs four small Specs on replica 0 and each again on replica
// 1, which must answer from its peer cache tier, so both replicas' peer
// clients and lazily built state exist before anything is timed. One
// Spec left set-up at a few milliseconds, where the host's scheduling
// noise made it bimodal.
func (s *fleetState) warmUp(e *env, i int) error {
	base := e.seeded("fleet-sweep/setup")>>20 + uint64(8*i)
	for k := uint64(0); k < 4; k++ {
		body := fmt.Appendf(nil, `{"experiment":"figure7","params":{"trials":640,"seed":%d}}`, base+k)
		for j, c := range []*conn{s.c0, s.c1} {
			r, err := c.post("/v1/run", body)
			if err != nil {
				return fmt.Errorf("warm-up run on replica %d: %w", j, err)
			}
			if want := []string{"miss", "hit"}[j]; r.status != http.StatusOK || r.header.Get("X-Cache") != want {
				return fmt.Errorf("warm-up run on replica %d: status %d X-Cache %q, want %s", j, r.status, r.header.Get("X-Cache"), want)
			}
		}
	}
	return nil
}

// fleetCoordRoutes are the peer-to-peer routes one sweep's
// coordination costs: lease claims, ledger polls and peer cache reads.
var fleetCoordRoutes = []string{"POST /v1/leases/{sweep}/{point}", "GET /v1/leases/{sweep}", "GET /v1/cache/{hash}"}

func runFleetSweep(e *env, o *outcome) error {
	st, err := timedSetup(e, o, func(i int) (*fleetState, error) {
		reps, err := startReplicas(2, func(_ int, cfg *serve.Config) {
			cfg.Workers = 1
			cfg.LeaseTTL = leaseTTL
			cfg.FleetPoll = fleetPoll
			cfg.PeerTimeout = peerTimeout
		})
		if err != nil {
			return nil, err
		}
		s := &fleetState{reps, newConn(reps[0].url), newConn(reps[1].url)}
		if err := s.warmUp(e, i); err != nil {
			s.close()
			return nil, err
		}
		return s, nil
	}, (*fleetState).close)
	if err != nil {
		return err
	}
	defer st.close()
	conns := []*conn{st.c0, st.c1}

	var before [2]scrape
	var statsBefore [2]serve.FleetStats
	for i, c := range conns {
		if before[i], err = scrapeOf(c); err != nil {
			return err
		}
		if statsBefore[i], err = fleetStatsOf(c); err != nil {
			return err
		}
	}
	stream := newFleetStream(e)
	var (
		makespans latencies
		done      []*sweep.Sweep
		points    int
		stalled   int
		deferWait time.Duration
	)
	start := time.Now()
	for k := 1; time.Since(start) < e.measure || len(makespans) < 2; k++ {
		spec := stream.next()
		sw, err := sweep.Expand(spec)
		if err != nil {
			return err
		}
		body, err := json.Marshal(spec)
		if err != nil {
			return err
		}
		root, endRoot := e.tr.begin("op.fleet_sweep", k, 0)
		t0 := time.Now()
		_, endSubmit := e.tr.begin("http.submit", k, root)
		id, err := st.c0.submitSweep(body)
		endSubmit()
		var snaps [2]jobs.Snapshot
		if err == nil {
			snaps[0], err = st.c0.waitDone(id)
		}
		if err == nil {
			snaps[1], err = waitForwarded(st.c1, id)
		}
		lat := time.Since(t0)
		o.attempted++
		if err != nil {
			endRoot()
			o.fail(err)
			continue
		}
		// Each replica's finish time comes from its own job snapshot;
		// the lagging replica's tail is deferral waiting when it parked
		// points on its peer's leases, compute otherwise.
		fin := [2]time.Time{finishOf(snaps[0]), finishOf(snaps[1])}
		first, last := 0, 1
		if fin[1].Before(fin[0]) {
			first, last = 1, 0
		}
		e.tr.record("fleet.compute", k, root, t0, fin[first])
		tail := "fleet.compute"
		if snaps[last].Progress.Deferred > 0 {
			tail = "fleet.deferral_wait"
			deferWait += fin[last].Sub(fin[first])
		}
		e.tr.record(tail, k, root, fin[first], fin[last])
		endRoot()
		makespans = append(makespans, lat)
		if lat > leaseTTL {
			stalled++
		}
		for i, s := range snaps {
			p := s.Progress
			o.check("sweep.job_done", s.State == jobs.StateDone && p.Done == p.Total && p.Failed == 0 && p.Total == len(sw.Points),
				"replica %d sweep %s ended %s with %d/%d ok, %d failed", i, id[:12], s.State, p.Done-p.Failed, p.Total, p.Failed)
		}
		points += len(sw.Points)
		done = append(done, sw)
	}
	elapsed := time.Since(start)

	var d [2]scrape
	for i, c := range conns {
		after, err := scrapeOf(c)
		if err != nil {
			return err
		}
		d[i] = delta(before[i], after)
		fs, err := fleetStatsOf(c)
		if err != nil {
			return err
		}
		o.layers["fleet.claims_sent"] += float64(fs.ClaimsSent - statsBefore[i].ClaimsSent)
		o.layers["fleet.claims_denied"] += float64(fs.ClaimsDenied - statsBefore[i].ClaimsDenied)
		o.layers["fleet.prefetched"] += float64(fs.Prefetched - statsBefore[i].Prefetched)
	}
	both := sum(d[0], d[1])
	serverLayers(both, o.layers)
	coord := 0.0
	for _, r := range fleetCoordRoutes {
		coord += both.prefixed(`qla_http_requests_total{route="` + r + `"`)
	}
	if points > 0 {
		o.layers["fleet.coord_requests_per_point"] = coord / float64(points)
	}
	o.layers["fleet.stalled_sweeps"] = float64(stalled)

	// Both replicas must hold byte-identical results for every point.
	for _, sw := range done {
		for _, pt := range sw.Points {
			h := pt.Canonical.Hash
			a, errA := st.c0.get("/v1/cache/" + h)
			b, errB := st.c1.get("/v1/cache/" + h)
			ok := errA == nil && errB == nil && a.status == http.StatusOK && b.status == http.StatusOK && bytes.Equal(a.body, b.body)
			o.check("fleet.replicas_identical", ok, "point %s differs between replicas or is missing", h[:12])
		}
	}

	o.workPerS = float64(points) / elapsed.Seconds()
	o.opP50MS = makespans.pct(50)
	o.add("points_per_s", o.workPerS, "1/s", points, fmt.Sprintf("%d sweeps of %d points", len(makespans), stream.points))
	o.add("fleet_sweep_p50_ms", o.opP50MS, "ms", len(makespans), "submit to both replicas done")
	o.add("stalled_sweeps", float64(stalled), "count", len(makespans), fmt.Sprintf("makespan over the %v lease TTL", leaseTTL))
	o.add("deferral_wait_s", deferWait.Seconds(), "s", len(makespans), "lagging replica's tail while it deferred points")
	return nil
}

// finishOf is when a job settled, on the server's clock (the same
// process clock as the client's here).
func finishOf(s jobs.Snapshot) time.Time {
	return s.Created.Add(time.Duration(s.ElapsedSeconds * float64(time.Second)))
}

// waitForwarded waits for the forwarded copy of job id on a peer; the
// forward is asynchronous, so the job may not exist for a moment.
func waitForwarded(c *conn, id string) (jobs.Snapshot, error) {
	deadline := time.Now().Add(10 * time.Second)
	for {
		snap, err := c.waitDone(id)
		if err == nil || !strings.Contains(err.Error(), "status 404") || time.Now().After(deadline) {
			return snap, err
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// fleetStatsOf reads a replica's fleet counters from GET /v1/stats.
func fleetStatsOf(c *conn) (serve.FleetStats, error) {
	r, err := c.get("/v1/stats")
	if err != nil {
		return serve.FleetStats{}, err
	}
	var body serve.StatsBody
	if err := json.Unmarshal(r.body, &body); err != nil {
		return serve.FleetStats{}, fmt.Errorf("GET /v1/stats: %w", err)
	}
	if body.Fleet == nil {
		return serve.FleetStats{}, fmt.Errorf("GET /v1/stats: no fleet section")
	}
	return *body.Fleet, nil
}
